package main

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/inject"
	"repro/internal/memsys"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/zones"
)

// Micro-lines: fixed-iteration loops around one public call of one
// layer, on the netlist of the workload that hosts them. Each is
// hosted by the workload whose end-to-end metric it should move (see
// README), so a traced run stays short and no line is measured twice.

// timeEach runs f iters times and returns the per-call wall in the
// given unit, one sample per call.
func timeEach(iters int, unit time.Duration, f func()) []float64 {
	out := make([]float64, iters)
	for i := range out {
		t := time.Now()
		f()
		out[i] = float64(time.Since(t)) / float64(unit)
	}
	return out
}

// microRounds is how many times a whole-loop micro-line is repeated so
// it has quartiles to show.
const microRounds = 5

// engineParts is what the micro-lines need from a built assessment.
type engineParts struct {
	an     *zones.Analysis
	target *inject.Target
	trace  *workload.Trace
}

func partsOf(a *assessment) (engineParts, error) {
	an, err := a.dut.Analyze()
	if err != nil {
		return engineParts{}, err
	}
	target := a.dut.Target(an)
	target.Workers, target.Lanes, target.Collapse = a.opts.Workers, a.opts.Lanes, a.opts.Collapse
	return engineParts{an: an, target: target, trace: a.dut.ValidationTrace()}, nil
}

// microScalar hosts the interpreted-simulator lines on certify_default,
// the one workload that simulates every experiment on internal/sim.
func microScalar(c *runCtx, a *assessment) error {
	p, err := partsOf(a)
	if err != nil {
		return err
	}
	var s *sim.Simulator
	c.res.addSamples("sim.new_instance_us", "us", timeEach(c.sz.MicroIters/10+3, time.Microsecond, func() {
		s, err = p.target.NewInstance()
	}))
	if err != nil {
		return err
	}
	gates := float64(len(p.an.N.Gates))
	cycles := p.trace.Cycles()
	c.res.addSamples("sim.step_ns_per_gate", "ns", perItem(float64(cycles)*gates, timeEach(microRounds, time.Nanosecond, func() {
		for cy := 0; cy < cycles; cy++ {
			p.trace.ApplyTo(s, cy)
			s.Eval()
			s.Step()
		}
	})))
	return nil
}

// perItem divides whole-loop samples down to their per-item unit.
func perItem(items float64, loops []float64) []float64 {
	for i := range loops {
		loops[i] /= items
	}
	return loops
}

// warmSnapshot returns a simulator a few cycles into the workload and
// a snapshot of it, the state lanes are loaded from.
func warmSnapshot(p engineParts) (*sim.Simulator, *sim.Snapshot, error) {
	s, err := p.target.NewInstance()
	if err != nil {
		return nil, nil, err
	}
	for cy := 0; cy < min(16, p.trace.Cycles()); cy++ {
		p.trace.ApplyTo(s, cy)
		s.Eval()
		s.Step()
	}
	return s, s.Snapshot(), nil
}

// microLanes hosts the compiled-kernel lines on campaign_lanes.
func microLanes(c *runCtx, a *assessment) error {
	p, err := partsOf(a)
	if err != nil {
		return err
	}
	var prog *simc.Program
	c.res.addSamples("simc.compile_ms", "ms", timeEach(microRounds, time.Millisecond, func() {
		prog, err = simc.Compile(p.an.N)
	}))
	if err != nil {
		return err
	}
	_, sn, err := warmSnapshot(p)
	if err != nil {
		return err
	}
	m := simc.NewMachine(prog)
	for lane := 0; lane < 64; lane++ {
		m.LoadLane(lane, sn.FFValues(), sn.ExtValues())
	}
	m.Eval()
	steps := c.sz.MicroIters
	c.res.addSamples("simc.step_ns_per_op_lane", "ns", perItem(float64(steps)*float64(prog.Ops())*64, timeEach(microRounds, time.Nanosecond, func() {
		for i := 0; i < steps; i++ {
			m.Step(nil)
		}
	})))

	// Goroutine sharding on the workload's own plan. Informational:
	// the two workers share cores with everything else on the box.
	golden, err := p.target.RunGolden(p.trace)
	if err != nil {
		return err
	}
	plan := inject.BuildPlan(p.an, golden, a.opts.Plan)
	wall := func(workers int) []float64 {
		t := *p.target
		t.Workers = workers
		return timeEach(3, time.Second, func() {
			if _, rerr := t.Run(golden, plan); rerr != nil {
				err = rerr
			}
		})
	}
	w1, w2 := wall(1), wall(2)
	if err != nil {
		return err
	}
	c.res.add("inject.par2_speedup", "ratio", median(w1)/median(w2), nil)

	// The same op with a live hub, journal and tracer writing to a
	// discarded sink — what internal/serve attaches to every job.
	bare := timeEach(3, time.Second, func() { a.run(c) })
	hubbed := timeEach(3, time.Second, func() {
		j := telemetry.NewJournal(io.Discard, telemetry.SystemClock)
		tel := telemetry.NewCampaign(j, telemetry.SystemClock)
		tel.Tracer = telemetry.NewTracer(j, "bench", 1)
		opts := a.opts
		opts.Telemetry = tel
		as, rerr := core.Run(a.dut, opts)
		if rerr != nil {
			c.res.fail("hub run: %v", rerr)
			return
		}
		c.checkReport(a.key, []byte(as.Report()))
	})
	c.res.add("telemetry.hub_overhead_frac", "ratio", median(hubbed)/median(bare)-1, nil)
	return nil
}

// microLong hosts the lines long traces lean on: snapshot/restore of
// the scalar simulator, the binary kernel behind toggle and fault
// simulation, and the paper's gate-level fault-simulation line.
func microLong(c *runCtx, a *assessment) error {
	p, err := partsOf(a)
	if err != nil {
		return err
	}
	s, sn, err := warmSnapshot(p)
	if err != nil {
		return err
	}
	iters := c.sz.MicroIters/10 + 3
	c.res.addSamples("sim.snapshot_us", "us", timeEach(iters, time.Microsecond, func() { sn = s.Snapshot() }))
	c.res.addSamples("sim.restore_us", "us", timeEach(iters, time.Microsecond, func() { s.Restore(sn) }))

	prog, err := simc.Compile(p.an.N)
	if err != nil {
		return err
	}
	bm := simc.NewBinMachine(prog)
	steps := c.sz.MicroIters
	c.res.addSamples("simc.bin_step_ns_per_op_lane", "ns", perItem(float64(steps)*float64(prog.Ops())*64, timeEach(microRounds, time.Nanosecond, func() {
		for i := 0; i < steps; i++ {
			bm.Eval()
			bm.Step()
		}
	})))

	// E8 of EXPERIMENTS.md: PPSFP over the collapsed stuck-at universe
	// of the v2 codec bench.
	cfg := memsys.V2Config()
	n, err := memsys.BuildCodecBench(cfg)
	if err != nil {
		return err
	}
	u := faults.StuckAtUniverse(n)
	eng, err := faultsim.New(n)
	if err != nil {
		return err
	}
	vectors, err := memsys.CodecVectors(cfg, max(8, c.sz.MicroIters/4), 42)
	if err != nil {
		return err
	}
	var funcObs, diag []netlist.NetID
	for _, port := range []string{"dout", "enc"} {
		if pt, ok := n.FindOutput(port); ok {
			funcObs = append(funcObs, pt.Nets...)
		}
	}
	for _, port := range []string{"alarm_single", "alarm_double", "alarm_in_addr", "alarm_in_check"} {
		if pt, ok := n.FindOutput(port); ok {
			diag = append(diag, pt.Nets...)
		}
	}
	runs := timeEach(3, time.Second, func() {
		if _, rerr := eng.Run(vectors, funcObs, diag, u.Reps); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	c.res.add("faultsim.faults_per_s", "faults/s", float64(len(u.Reps))/median(runs), nil)
	return nil
}
