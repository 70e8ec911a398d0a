package main

import (
	"runtime"
	"time"
)

// runCtx is the state of one run of one workload.
type runCtx struct {
	sz      *sizing
	seed    uint64
	seconds float64 // timed section length; ops stop once it is spent
	tr      *tracer // nil in untraced runs
	pins    *pins
	res     *result
}

// measureSetup runs the workload's set-up sz.SetupRounds times and reports
// setup_s as the median round. A round builds everything the timed ops
// reuse (designs, campaigns, daemon, serial reference) and makes one
// warm-up op, so lazily built state is charged here and not to the
// first timed op. The state of the last round is the one the ops use.
func (c *runCtx) measureSetup(round func(i int) error) error {
	var rounds []float64
	for i := 0; i < c.sz.SetupRounds; i++ {
		start := time.Now()
		if err := round(i); err != nil {
			return err
		}
		rounds = append(rounds, time.Since(start).Seconds())
	}
	c.res.addSamples("setup_s", "s", rounds)
	return nil
}

// loopStats is what a closed timed loop measured.
type loopStats struct {
	walls   []float64 // per-op wall, seconds
	rows    int       // plan rows resolved by all ops
	wall    float64   // first op start → last op end, seconds
	allocMB float64   // runtime TotalAlloc growth over the loop
}

// timedLoop calls op back to back (a caller waits for its report
// before asking again) until the run's seconds are spent and at least
// minOps ops are done. op returns the plan rows it resolved; it
// records its own failures on c.res.
func (c *runCtx) timedLoop(minOps int, op func(i int) (rows int)) loopStats {
	var ls loopStats
	ls.wall, ls.allocMB = timed(func() {
		start := time.Now()
		for i := 0; i < minOps || time.Since(start).Seconds() < c.seconds; i++ {
			t := time.Now()
			c.res.Attempted++
			ls.rows += op(i)
			ls.walls = append(ls.walls, time.Since(t).Seconds())
			// Every op starts from a collected heap, outside its own
			// timer: peak_rss_mb is then the most one op needs, not an
			// accident of where the collector's cycle fell across ops
			// (that alone spread it 9 % between runs).
			runtime.GC()
		}
	})
	return ls
}

// timed returns the wall time of body in seconds and how many MB the
// Go heap allocated while it ran (TotalAlloc, so freed memory counts).
func timed(body func()) (wall, allocMB float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	body()
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return wall, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// reportEndToEnd adds the end-to-end metrics every workload shares.
func (c *runCtx) reportEndToEnd(ls loopStats) {
	c.res.addSamples("op_wall_s", "s", ls.walls)
	c.res.add("exp_per_s", "rows/s", float64(ls.rows)/ls.wall, nil)
	c.res.add("alloc_mb_per_op", "MB", ls.allocMB/float64(len(ls.walls)), nil)
}
