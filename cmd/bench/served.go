package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// opClass is what the generator meant an op to be. Latency classes in
// the results follow the server's cache_hit flag, not this intent.
type opClass int

const (
	opFresh   opClass = iota // a submission this daemon has not seen
	opRepeat                 // a completed fresh submission again
	opRegrade                // a completed spec at another target SIL
)

func (c opClass) String() string { return [...]string{"fresh", "repeat", "regrade"}[c] }

// generator draws served_mix's closed-loop traffic from the seed. It
// is a pure function of the seed and of the order in which fresh jobs
// complete, so one client replays exactly; with two clients only which
// completed key a repeat picks can shift with timing.
type generator struct {
	k     servedKnobs
	mu    sync.Mutex
	rng   *xrand.RNG
	base  uint64
	n     int       // fresh submissions drawn so far
	block []opClass // what is left of the current block of ten
	picks [3]int    // repeats and regrades drawn so far, by class
	// regraded marks the plan seeds already resubmitted at RegradeSIL.
	regraded map[uint64]bool
	done     []serve.Submission // completed fresh submissions, oldest first
}

func newGenerator(k servedKnobs, seed uint64) *generator {
	rng := xrand.New(seed)
	return &generator{k: k, rng: rng, base: uint64(rng.Intn(k.SeedSpace)), regraded: map[uint64]bool{}}
}

// fresh is the submission for plan seed s: the design follows the plan
// seed, so every pinned (seed, SIL) pair names one report.
func (k servedKnobs) fresh(planSeed uint64) serve.Submission {
	return serve.Submission{
		Design:    k.Designs[planSeed%uint64(len(k.Designs))],
		AddrWidth: k.AddrWidth, Words: k.Words,
		Seed: planSeed, Validate: true,
	}
}

// nextFresh draws the next unseen submission. Plan seeds are
// consecutive, so any len(Designs) draws in a row cover every design.
func (g *generator) nextFresh() serve.Submission {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.freshLocked()
}

func (g *generator) freshLocked() serve.Submission {
	sub := g.k.fresh(1 + (g.base+uint64(g.n))%uint64(g.k.SeedSpace))
	g.n++
	return sub
}

func (g *generator) next() (serve.Submission, opClass) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		for _, slot := range g.rng.Perm(10) {
			class := opRegrade
			switch {
			case slot < g.k.FreshPer10:
				class = opFresh
			case slot < g.k.FreshPer10+g.k.RepeatPer10:
				class = opRepeat
			}
			g.block = append(g.block, class)
		}
	}
	class := g.block[0]
	g.block = g.block[1:]
	if len(g.done) == 0 {
		class = opFresh // nothing to repeat yet
	}
	if class == opFresh {
		return g.freshLocked(), class
	}
	// Repeats (and regrades) take the designs in turn and draw uniformly
	// among the window's submissions of that design: a v2 job costs several
	// times a cpu-lockstep job, and the share of each must not depend on
	// the seed.
	window := g.done[max(0, len(g.done)-g.k.RepeatWindow):]
	design := g.k.Designs[g.picks[class]%len(g.k.Designs)]
	g.picks[class]++
	var same []serve.Submission
	for _, sub := range window {
		// A spec is regraded once: a second regrade would be a plain
		// cache hit, and how often that happens is birthday luck.
		if sub.Design == design && !(class == opRegrade && g.regraded[sub.Seed]) {
			same = append(same, sub)
		}
	}
	if len(same) == 0 {
		same = window // that design has not completed yet
	}
	sub := same[g.rng.Intn(len(same))]
	if class == opRegrade {
		g.regraded[sub.Seed] = true
		sub.TargetSIL = g.k.RegradeSIL
	}
	return sub, class
}

// completed tells the generator a fresh job's report has been read.
func (g *generator) completed(sub serve.Submission) {
	g.mu.Lock()
	g.done = append(g.done, sub)
	g.mu.Unlock()
}

// servedKey is the digest key of a submission's report — the same key
// a certify run of the same design and plan has.
func servedKey(sub serve.Submission) string {
	d := designKnobs{Design: sub.Design, Transient: 1, Permanent: 1}
	if sub.Design == "v1" || sub.Design == "v2" {
		d.AddrWidth, d.Words = sub.AddrWidth, sub.Words
	}
	sil := sub.TargetSIL
	if sil == 0 {
		sil = int(core.DefaultOptions().TargetSIL)
	}
	return assessKey(d, core.DefaultOptions().WideFaults, sub.Seed, sil)
}

// daemon is one serve.Server behind a real loopback listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	cfg.Clock = time.Now
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) //nolint:errcheck — returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop drains the worker pool, closes the listener and waits for the
// accept loop to end.
func (d *daemon) stop() {
	d.srv.Drain(0) //nolint:errcheck — zero timeout waits, never errors
	d.http.Close() //nolint:errcheck — listener teardown
	<-d.done
}

// jobTiming is one op as its client saw it.
type jobTiming struct {
	id        string
	class     opClass
	hit       bool
	latency   time.Duration // POST sent → report body read
	queue     time.Duration // server-side queue_sec
	run       time.Duration // server-side run_sec
	polls     int
	rows      int
	journalKB float64
}

// client is one closed-loop caller: it waits for its report before it
// asks again.
type client struct {
	c    *runCtx
	tr   *tracer // nil: this client records no spans
	url  string
	hc   *http.Client
	poll time.Duration
}

func (cl *client) get(path string) ([]byte, int, error) {
	resp, err := cl.hc.Get(cl.url + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// getJSON fetches path and decodes a 200 answer into v.
func (cl *client) getJSON(path string, v any) error {
	body, code, err := cl.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// op submits, polls and fetches one job. ok is false when the op
// failed; the reason is already booked on the result.
func (cl *client) op(opID int, sub serve.Submission, class opClass) (jt jobTiming, ok bool) {
	c, tr := cl.c, cl.tr
	jt.class = class
	payload, err := json.Marshal(sub)
	if err != nil {
		c.res.fail("marshal submission: %v", err)
		return jt, false
	}
	root := tr.start("serve.op", opID, -1)
	defer tr.end(root)
	start := time.Now()

	var st serve.Status
	sp := tr.start("serve.submit", opID, root)
	resp, err := cl.hc.Post(cl.url+"/jobs", "application/json", bytes.NewReader(payload))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, bytes.TrimSpace(body)) // 429 and 503 land here
		}
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
	}
	tr.end(sp)
	if err != nil {
		c.res.fail("submit: %v", err)
		return jt, false
	}
	jt.id = st.ID
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		time.Sleep(cl.poll)
		sp := tr.start("serve.poll", opID, root)
		err := cl.getJSON("/jobs/"+jt.id, &st)
		tr.end(sp)
		jt.polls++
		if err != nil {
			c.res.fail("poll: %v", err)
			return jt, false
		}
	}
	if st.State != serve.StateDone {
		c.res.fail("job %s ended %s: %s", jt.id, st.State, st.Error)
		return jt, false
	}
	sp = tr.start("serve.report_fetch", opID, root)
	report, code, err := cl.get("/jobs/" + jt.id + "/report")
	tr.end(sp)
	jt.latency = time.Since(start)
	if err != nil || code != http.StatusOK {
		c.res.fail("report %s: %d %v", jt.id, code, err)
		return jt, false
	}
	jt.hit = st.CacheHit
	jt.queue = time.Duration(st.QueueSec * float64(time.Second))
	jt.run = time.Duration(st.RunSec * float64(time.Second))

	// A hit must return the bytes of the miss that filled it, and both
	// the pinned ones: every report of one key goes through one check.
	c.checkReport(servedKey(sub), report)
	if tr != nil && !st.CacheHit {
		if body, _, err := cl.get("/jobs/" + jt.id + "/journal"); err == nil {
			jt.journalKB = float64(len(body)) / 1024
		}
	}
	return jt, true
}

// served is the state served_mix builds in set-up.
type served struct {
	d    *daemon
	gen  *generator
	rows map[string]int // plan rows per design, read from the warm-up jobs' hubs
}

func (s *served) client(c *runCtx, tr *tracer) *client {
	return &client{c: c, tr: tr, url: s.d.url, hc: &http.Client{}, poll: c.sz.Served.Poll}
}

// startServed starts a daemon and warms it with one fresh job per
// design, so a set-up round costs the same at every seed and the plan
// size of each design is known before the timed loop.
func startServed(c *runCtx) (*served, error) {
	k := c.sz.Served
	d, err := startDaemon(k.Config)
	if err != nil {
		return nil, err
	}
	s := &served{d: d, gen: newGenerator(k, c.seed), rows: map[string]int{}}
	cl := s.client(c, nil)
	for range k.Designs {
		sub := s.gen.nextFresh()
		jt, ok := cl.op(-1, sub, opFresh)
		if !ok {
			d.stop()
			return nil, fmt.Errorf("bench: warm-up op failed: %v", c.res.Failures)
		}
		var snap telemetry.RegistrySnapshot
		if err := cl.getJSON("/jobs/"+jt.id+"/metrics.json", &snap); err != nil {
			d.stop()
			return nil, err
		}
		s.rows[sub.Design] = int(snap.Gauges["plan_total"])
		s.gen.completed(sub)
	}
	return s, nil
}

// loop runs the closed loop: Clients callers share one op budget and
// stop once the seconds are spent and minOps ops are issued.
func (s *served) loop(c *runCtx, tr *tracer, seconds float64, minOps int) (timings []jobTiming, ls loopStats) {
	var mu sync.Mutex
	issued := 0
	ls.wall, ls.allocMB = timed(func() {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < c.sz.Served.Clients; i++ {
			cl := s.client(c, tr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					stop := issued >= minOps && time.Since(start).Seconds() >= seconds
					opID := issued
					if !stop {
						issued++
					}
					mu.Unlock()
					if stop {
						return
					}
					sub, class := s.gen.next()
					jt, ok := cl.op(opID, sub, class)
					if !ok {
						continue
					}
					if class == opFresh {
						s.gen.completed(sub)
					}
					jt.rows = s.rows[sub.Design]
					mu.Lock()
					timings = append(timings, jt)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	c.res.Attempted += issued
	for _, jt := range timings {
		ls.rows += jt.rows
		if !jt.hit {
			ls.walls = append(ls.walls, jt.latency.Seconds())
		}
	}
	return timings, ls
}

// runServed is served_mix: Clients closed-loop callers against one
// daemon for the run's seconds.
func runServed(c *runCtx) error {
	k := c.sz.Served
	var s *served
	err := c.measureSetup(func(int) error {
		if s != nil {
			s.d.stop()
		}
		var err error
		s, err = startServed(c)
		return err
	})
	if err != nil {
		return err
	}
	defer s.d.stop()

	if c.tr == nil {
		timings, ls := s.loop(c, nil, c.seconds, k.MinOps)
		if len(ls.walls) == 0 {
			return fmt.Errorf("bench: served_mix made no engine run")
		}
		// op_wall_s is the latency of engine-run jobs: a cache hit is
		// three orders of magnitude faster and would make the median
		// a coin toss between the two populations.
		c.res.addSamples("op_wall_s", "s", ls.walls)
		c.res.add("exp_per_s", "rows/s", float64(ls.rows)/ls.wall, nil)
		c.res.add("alloc_mb_per_op", "MB", ls.allocMB/float64(len(timings)), nil)
		return nil
	}
	// Traced run: a half-length untraced loop first, as the reference
	// for the tracing overhead, then the full loop with client spans and
	// per-job journal fetches.
	_, plain := s.loop(c, nil, c.seconds/2, k.MinOps/2)
	timings, ls := s.loop(c, c.tr, c.seconds, k.MinOps)
	if len(ls.walls) == 0 || len(plain.walls) == 0 {
		return fmt.Errorf("bench: served_mix made no engine run")
	}
	c.res.add("bench.trace_overhead_frac", "ratio", median(ls.walls)/median(plain.walls)-1, nil)
	reportServedLayers(c, s.d, timings, ls)
	return nil
}

// reportServedLayers adds served_mix's per-layer lines from the client
// spans, the final job statuses and the daemon's own registry.
func reportServedLayers(c *runCtx, d *daemon, timings []jobTiming, ls loopStats) {
	res := c.res
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var miss, hit, regrade, queue, run, shell, polls, journal []float64
	repeats, repeatHits := 0, 0
	for _, jt := range timings {
		switch jt.class {
		case opRegrade:
			regrade = append(regrade, ms(jt.latency))
		case opRepeat:
			repeats++
			if jt.hit {
				repeatHits++
			}
		}
		if jt.hit {
			hit = append(hit, ms(jt.latency)*1000)
			continue
		}
		miss = append(miss, ms(jt.latency))
		queue = append(queue, ms(jt.queue))
		run = append(run, ms(jt.run))
		shell = append(shell, ms(jt.latency-jt.queue-jt.run))
		polls = append(polls, float64(jt.polls))
		journal = append(journal, jt.journalKB)
	}
	res.add("jobs_per_s", "jobs/s", float64(len(timings))/ls.wall, nil)
	res.addSamples("miss_p50_ms", "ms", miss)
	if v, ok := tailPercentile(miss, 0.9); ok {
		res.add("miss_p90_ms", "ms", v, miss)
	}
	res.addSamples("hit_p50_us", "us", hit)
	if v, ok := tailPercentile(hit, 0.75); ok {
		res.add("serve.hit_p75_us", "us", v, hit)
	}
	res.addSamples("serve.regrade_p50_ms", "ms", regrade)
	res.addSamples("serve.queue_wait_ms_p50", "ms", queue)
	res.addSamples("serve.run_ms_p50", "ms", run)
	res.addSamples("serve.shell_ms_p50", "ms", shell)
	res.add("serve.polls_per_job", "count", sum(polls)/float64(len(polls)), polls)
	res.add("serve.journal_kb_per_job", "KB", sum(journal)/float64(len(journal)), journal)
	res.addSamples("serve.submit_us_p50", "us", c.tr.each("serve.submit", time.Microsecond))
	res.addSamples("serve.poll_us_p50", "us", c.tr.each("serve.poll", time.Microsecond))
	res.addSamples("serve.report_fetch_us_p50", "us", c.tr.each("serve.report_fetch", time.Microsecond))
	if repeats > 0 {
		res.add("serve.cache_hit_ratio", "ratio", float64(repeatHits)/float64(repeats), nil)
	}
	snap := d.srv.Registry().Snapshot()
	res.add("serve.rejected", "count", float64(snap.Counters["served_jobs_rejected"]), nil)
}
