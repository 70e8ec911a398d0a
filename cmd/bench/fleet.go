package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/inject"
	"repro/internal/statfault"
	"repro/internal/telemetry"
)

// fleet is the state fleet_2w builds in set-up: the coordinator's
// campaign, one campaign per worker (a real worker process builds its
// own) and the serial reference.
type fleet struct {
	k       fleetKnobs
	spec    dist.Spec
	coord   *dist.Campaign
	workers []*dist.Campaign

	serialWall   float64 // median in-process wall of the same campaign, seconds
	serialReport []byte  // its canonical report: what the fleet must reproduce
}

// applyEngine sets the fleet's engine knobs on a campaign's target.
func applyEngine(t *inject.Target, e engineKnobs) {
	t.Lanes, t.Workers, t.Collapse = e.Lanes, e.Workers, e.Collapse
}

// renderCampaign is the canonical campaign report, as cmd/campaignd
// and cmd/injector print it.
func renderCampaign(cm *dist.Campaign, rep *inject.Report) []byte {
	var buf bytes.Buffer
	rep.WriteText(&buf, cm.Analysis, cm.Worksheet, core.DefaultOptions().Tolerance)
	return buf.Bytes()
}

func buildFleet(k fleetKnobs, seed uint64) (*fleet, error) {
	f := &fleet{k: k, spec: k.Spec}
	f.spec.Seed = seed
	var err error
	if f.coord, err = f.spec.Build(); err != nil {
		return nil, err
	}
	applyEngine(f.coord.Target, k.Engine)
	for i := 0; i < k.FleetWorkers; i++ {
		w, err := f.spec.Build()
		if err != nil {
			return nil, err
		}
		applyEngine(w.Target, k.Engine)
		f.workers = append(f.workers, w)
	}
	var walls []float64
	for i := 0; i < k.SerialRuns; i++ {
		start := time.Now()
		rep, err := f.coord.Target.Run(f.coord.Golden, f.coord.Plan)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
		f.serialReport = renderCampaign(f.coord, rep)
	}
	f.serialWall = median(walls)
	return f, nil
}

// op runs the campaign once across the fleet: a coordinator on a
// loopback listener, FleetWorkers dist.RunWorker loops dialling in,
// then merge, assemble and render. tel (nil when untraced) is shared by
// the coordinator and the workers' engines.
func (f *fleet) op(c *runCtx, tel *telemetry.Campaign) (rows int) {
	fail := func(format string, args ...any) int {
		c.res.fail("fleet: "+format, args...)
		return 0
	}
	coord, err := dist.New(dist.Config{Plan: f.coord.Plan, Clock: time.Now, Telemetry: tel})
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	var serving sync.WaitGroup
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serving.Add(1)
			go func() {
				defer serving.Done()
				coord.Serve(conn) //nolint:errcheck — a broken worker shows as a failed campaign
			}()
		}
	}()
	workerErrs := make(chan error, len(f.workers)) // one send per worker
	for i, w := range f.workers {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			coord.Fail(err)
			workerErrs <- err
			continue
		}
		w.Target.Telemetry = tel
		go func() {
			workerErrs <- dist.RunWorker(conn, dist.WorkerConfig{
				Name: fmt.Sprintf("w%d", i), Target: w.Target, Golden: w.Golden, Plan: w.Plan,
				Workers: f.k.Engine.Workers, Telemetry: tel,
			})
		}()
	}
	// Workers leave on the coordinator's fin (or on an error). Should the
	// last one leave with work still open, nobody is left to finish the
	// campaign: fail it instead of ticking forever.
	ticker := time.NewTicker(f.k.Tick)
	for left := len(f.workers); left > 0; {
		select {
		case err := <-workerErrs:
			left--
			if err != nil {
				c.res.fail("fleet: worker: %v", err)
			}
			if left == 0 {
				coord.Fail(errors.New("every worker left")) // no-op on a finished campaign
			}
		case <-ticker.C:
			coord.Tick()
		}
	}
	ticker.Stop()
	<-coord.Done()
	ln.Close()
	<-accepted
	serving.Wait()

	ck, err := coord.Result()
	if err != nil {
		return fail("%v", err)
	}
	rep, err := f.coord.Target.AssembleReport(f.coord.Plan, ck)
	if err != nil {
		return fail("%v", err)
	}
	report := renderCampaign(f.coord, rep)
	if !bytes.Equal(report, f.serialReport) {
		c.res.fail("fleet: report differs from the in-process serial reference")
	}
	c.checkReport(campaignKey(f.spec), report)
	return len(f.coord.Plan)
}

// runFleet is fleet_2w: the operator's view of cmd/campaignd.
func runFleet(c *runCtx) error {
	var f *fleet
	err := c.measureSetup(func(int) error {
		var err error
		if f, err = buildFleet(c.sz.Fleet, c.seed); err != nil {
			return err
		}
		if f.op(c, nil) == 0 { // warm-up op
			return fmt.Errorf("bench: warm-up op failed: %v", c.res.Failures)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c.tr == nil {
		c.reportEndToEnd(c.timedLoop(f.k.MinOps, func(int) int { return f.op(c, nil) }))
		return nil
	}

	// Traced run: each op is made bare and then with a hub shared by the
	// coordinator and the workers' engines.
	var plain, hubbed, occupancy []float64
	var counts []map[string]float64
	c.timedLoop(max(2, f.k.MinOps/2), func(op int) int {
		start := time.Now()
		rows := f.op(c, nil)
		plain = append(plain, time.Since(start).Seconds())

		tel := telemetry.NewCampaign(nil, time.Now)
		id := c.tr.start("fleet.op", op, -1)
		start = time.Now()
		f.op(c, tel)
		wall := time.Since(start).Seconds()
		c.tr.end(id)
		hubbed = append(hubbed, wall)

		s := tel.Registry.Snapshot()
		n := hubCounts(tel)
		n["dist.leases_issued"] = float64(s.Counters["leases_issued"])
		n["dist.leases_expired"] = float64(s.Counters["leases_expired"])
		n["dist.worker_retries"] = float64(s.Counters["worker_retries"])
		counts = append(counts, n)
		busy := float64(s.Histograms["range_duration_ms"].Sum) / 1000
		occupancy = append(occupancy, busy/(float64(len(f.workers))*wall))
		return rows
	})
	for _, w := range f.workers {
		w.Target.Telemetry = nil
	}
	c.res.addSamples("fleet_vs_serial", "ratio", per(f.serialWall, plain))
	c.res.addSamples("dist.lease_occupancy", "ratio", occupancy)
	c.res.add("bench.trace_overhead_frac", "ratio", median(hubbed)/median(plain)-1, nil)
	c.reportCounts(counts)
	return microFleet(c, f)
}

// per returns amount ÷ x for every x: a rate per sample.
func per(amount float64, xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = amount / x
	}
	return out
}

// microFleet hosts the lines a lease pays for: the static pre-pass, the
// checkpoint codec, the merge, a 32-row range end to end, and one
// result message over loopback.
func microFleet(c *runCtx, f *fleet) error {
	cm := f.coord
	var err error
	c.res.addSamples("statfault.new_ms", "ms", timeEach(microRounds, time.Millisecond, func() {
		_, err = statfault.New(cm.Analysis)
	}))
	if err != nil {
		return err
	}

	full, err := cm.Target.RunRange(cm.Golden, cm.Plan, f.k.Engine.Workers, 0, len(cm.Plan))
	if err != nil {
		return err
	}
	var enc []byte
	encS := timeEach(microRounds, time.Second, func() { enc = inject.EncodeCheckpoint(full, cm.Plan) })
	decS := timeEach(microRounds, time.Second, func() { _, err = inject.DecodeCheckpoint(enc, cm.Plan) })
	if err != nil {
		return err
	}
	mb := float64(len(enc)) / (1 << 20)
	c.res.addSamples("inject.ckpt_encode_mb_s", "MB/s", per(mb, encS))
	c.res.addSamples("inject.ckpt_decode_mb_s", "MB/s", per(mb, decS))
	c.res.add("inject.ckpt_bytes_per_row", "B", float64(len(enc))/float64(len(cm.Plan)), nil)
	c.res.addSamples("inject.assemble_ms", "ms", timeEach(microRounds, time.Millisecond, func() {
		_, err = cm.Target.AssembleReport(cm.Plan, full)
	}))
	if err != nil {
		return err
	}

	// One lease-sized range, at a few places along the plan. What it
	// costs beyond its share of the serial wall is the fixed price of a
	// lease: collapse pre-pass, kernel compile, half-empty lane words.
	rows := min(leaseRows, len(cm.Plan))
	var ranges []float64
	var lastCk *inject.Checkpoint
	for i := 0; i < 8; i++ {
		lo := i * (len(cm.Plan) - rows) / 7
		ranges = append(ranges, timeEach(1, time.Millisecond, func() {
			lastCk, err = cm.Target.RunRange(cm.Golden, cm.Plan, f.k.Engine.Workers, lo, lo+rows)
		})...)
		if err != nil {
			return err
		}
	}
	c.res.addSamples("inject.range32_ms", "ms", ranges)
	share := float64(rows) * f.serialWall * 1000 / float64(len(cm.Plan))
	c.res.add("inject.range_fixed_ms", "ms", median(ranges)-share, nil)

	rtt, err := msgRoundTrips(c.sz.MicroIters/4+5, inject.EncodeCheckpoint(lastCk, cm.Plan))
	if err != nil {
		return err
	}
	c.res.addSamples("dist.msg_rtt_us", "us", rtt)
	return nil
}

// msgRoundTrips times Conn.Write + Conn.Read of a result message
// carrying ckpt against an echoing peer over loopback TCP.
func msgRoundTrips(n int, ckpt []byte) ([]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		peer := dist.NewConn(raw)
		defer peer.Close()
		for {
			m, err := peer.Read()
			if err != nil {
				echoed <- nil // the dialler hung up: done
				return
			}
			if err := peer.Write(m); err != nil {
				echoed <- err
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	conn := dist.NewConn(raw)
	msg := &dist.Msg{T: dist.MsgResult, Lease: 1, Ckpt: ckpt}
	samples := timeEach(n, time.Microsecond, func() {
		if werr := conn.Write(msg); werr != nil {
			err = werr
			return
		}
		if _, rerr := conn.Read(); rerr != nil {
			err = rerr
		}
	})
	conn.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	return samples, err
}
