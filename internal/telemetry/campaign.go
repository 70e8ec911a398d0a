package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SystemClock is the wall clock for binaries (cmd/injector). Library
// and report-feeding code must inject a clock instead of sampling one;
// telemetry output is out-of-band by design, which is why this single
// sampling point is exempt from the determinism linter.
func SystemClock() time.Time {
	return time.Now() //det:allow telemetry is out-of-band; reports never see this
}

// Campaign aggregates one process's campaign telemetry: the metric
// registry, the optional JSONL journal and the rate bookkeeping behind
// progress snapshots. Every method is safe on a nil receiver — the
// engine instruments its hot paths unconditionally and a nil *Campaign
// (telemetry off) costs one pointer check per call.
type Campaign struct {
	// Registry holds the campaign metrics; see campaign.go for the
	// names the engine populates.
	Registry *Registry
	// Journal receives lifecycle events (nil = no journal).
	Journal *Journal
	// Clock drives timestamps, rates and ETA (nil = no wall-clock
	// telemetry; counters and journal still work).
	Clock func() time.Time
	// Tracer, when set, receives spans from the instrumented layers
	// (nil = tracing off; every span hook is a no-op). See span.go.
	Tracer *Tracer

	// Ambient span parents (ids in Tracer's journal): the trace root
	// (campaign or worker-lease span) and the open phase span.
	rootSpan  atomic.Uint64
	phaseSpan atomic.Uint64

	// Pre-resolved hot-path handles.
	expStarted  *Counter
	expDone     *Counter
	retries     *Counter
	quarantined *Counter
	ckptWrites  *Counter
	ckptLoads   *Counter
	simCycles   *Counter
	mismatches  *Counter
	inFlight    *Gauge
	workers     *Gauge
	planTotal   *Gauge
	preloaded   *Gauge
	deviatedH   *Histogram
	expWallH    *Histogram
	batches     *Counter
	lanesActive *Gauge
	laneOccH    *Histogram
	collapsed   *Counter
	staticPrune *Counter
	inherited   *Counter
	leasesOut   *Counter
	leasesExp   *Counter
	workerRetry *Counter
	rangesQuar  *Counter
	distWorkers *Gauge
	rangeDurH   *Histogram
	rangeRowsH  *Histogram

	mu       sync.Mutex
	outcomes map[string]*Counter
	started  time.Time // first PlanBuilt with a clock
}

// NewCampaign builds a campaign telemetry hub. journal and clock may
// each be nil; with both nil the campaign is a pure in-memory metric
// sink (the no-op-sink configuration of BenchmarkE18).
func NewCampaign(journal *Journal, clock func() time.Time) *Campaign {
	r := NewRegistry()
	return &Campaign{
		Registry:    r,
		Journal:     journal,
		Clock:       clock,
		expStarted:  r.Counter("exp_started"),
		expDone:     r.Counter("exp_done"),
		retries:     r.Counter("retries"),
		quarantined: r.Counter("quarantined"),
		ckptWrites:  r.Counter("checkpoint_writes"),
		ckptLoads:   r.Counter("checkpoint_loads"),
		simCycles:   r.Counter("sim_cycles"),
		mismatches:  r.Counter("mismatch_points"),
		inFlight:    r.Gauge("exp_in_flight"),
		workers:     r.Gauge("workers"),
		planTotal:   r.Gauge("plan_total"),
		preloaded:   r.Gauge("preloaded"),
		deviatedH:   r.Histogram("deviated_points", 0, 1, 2, 4, 8, 16, 32),
		expWallH:    r.Histogram("exp_wall_us", 100, 1000, 10_000, 100_000, 1_000_000, 10_000_000),
		batches:     r.Counter("batches"),
		lanesActive: r.Gauge("lanes_active"),
		laneOccH:    r.Histogram("lane_occupancy", 1, 2, 4, 8, 16, 32, 64),
		collapsed:   r.Counter("faults_collapsed"),
		staticPrune: r.Counter("faults_static_pruned"),
		inherited:   r.Counter("outcomes_inherited"),
		leasesOut:   r.Counter("leases_issued"),
		leasesExp:   r.Counter("leases_expired"),
		workerRetry: r.Counter("worker_retries"),
		rangesQuar:  r.Counter("ranges_quarantined"),
		distWorkers: r.Gauge("workers_active"),
		rangeDurH:   r.Histogram("range_duration_ms", 1, 10, 100, 1000, 10_000, 60_000),
		rangeRowsH:  r.Histogram("range_rows", 1, 2, 4, 8, 16, 32, 64, 128, 256),
		outcomes:    map[string]*Counter{},
	}
}

// now returns the clock's time, or the zero time without a clock.
func (c *Campaign) now() time.Time {
	if c == nil || c.Clock == nil {
		return time.Time{}
	}
	return c.Clock()
}

// PlanBuilt marks the start of one campaign run: the plan size, the
// worker count and the plan fingerprint. Called once per Run/
// RunParallel invocation; the plan_total gauge accumulates across
// campaigns sharing the hub (e.g. zone + wide campaigns of core.Run).
func (c *Campaign) PlanBuilt(total, workers int, planHash uint64) {
	if c == nil {
		return
	}
	c.planTotal.Add(int64(total))
	c.workers.Set(int64(workers))
	if c.Clock != nil {
		c.mu.Lock()
		if c.started.IsZero() {
			c.started = c.Clock()
		}
		c.mu.Unlock()
	}
	c.Journal.Emit(EvCampaignStart, func(e *Enc) {
		e.Int("total", int64(total))
		e.Int("workers", int64(workers))
		e.Hex("plan_hash", planHash)
	})
}

// Phase records a flow phase transition (core.Run, cmd/injector). With
// a tracer it also closes the previous phase span and opens a new one
// under the trace root.
func (c *Campaign) Phase(name string) {
	if c == nil {
		return
	}
	c.Journal.Emit(EvPhase, func(e *Enc) { e.Str("name", name) })
	if c.Tracer != nil {
		if old := c.phaseSpan.Swap(0); old != 0 {
			Span{t: c.Tracer, id: old}.End()
		}
		sp := c.Tracer.start(name, c.rootSpan.Load(), 0, "", 0, nil)
		c.phaseSpan.Store(sp.id)
	}
}

// ExpTicket carries one running experiment's start time (zero without
// a clock) from ExpStart to ExpFinish. The journal's exp_start and
// exp_finish events are the experiment's whole trace; inside a lane
// batch its span would be the batch span.
type ExpTicket struct {
	Start time.Time
}

// ExpStart marks one experiment entering a worker and returns the
// ticket ExpFinish closes.
func (c *Campaign) ExpStart(planIndex int) ExpTicket {
	if c == nil {
		return ExpTicket{}
	}
	c.expStarted.Inc()
	c.inFlight.Add(1)
	c.Journal.Emit(EvExpStart, func(e *Enc) { e.Int("i", int64(planIndex)) })
	return ExpTicket{Start: c.now()}
}

// ExpFinish marks one experiment verdict: its outcome label, the SENS
// monitor, deviation fan-out and first deviation cycle. tk is the
// ExpStart return value.
func (c *Campaign) ExpFinish(planIndex int, outcome string, sens bool, deviated, firstDev int, tk ExpTicket) {
	if c == nil {
		return
	}
	c.expDone.Inc()
	c.inFlight.Add(-1)
	c.outcomeCounter(outcome).Inc()
	c.mismatches.Add(int64(deviated))
	c.deviatedH.Observe(int64(deviated))
	if c.Clock != nil && !tk.Start.IsZero() {
		c.expWallH.Observe(c.Clock().Sub(tk.Start).Microseconds())
	}
	c.Journal.Emit(EvExpFinish, func(e *Enc) {
		e.Int("i", int64(planIndex))
		e.Str("outcome", outcome)
		e.Bool("sens", sens)
		e.Int("deviated", int64(deviated))
		e.Int("first_dev", int64(firstDev))
	})
}

// Retry records one failed attempt that will be retried.
func (c *Campaign) Retry(planIndex, attempt int, err string) {
	if c == nil {
		return
	}
	c.retries.Inc()
	c.Journal.Emit(EvRetry, func(e *Enc) {
		e.Int("i", int64(planIndex))
		e.Int("attempt", int64(attempt))
		e.Str("err", err)
	})
}

// Quarantine records one experiment isolated after exhausting retries.
func (c *Campaign) Quarantine(planIndex, attempts int, err string) {
	if c == nil {
		return
	}
	c.quarantined.Inc()
	c.inFlight.Add(-1)
	c.expDone.Inc()
	c.Journal.Emit(EvQuarantine, func(e *Enc) {
		e.Int("i", int64(planIndex))
		e.Int("attempts", int64(attempts))
		e.Str("err", err)
	})
}

// CheckpointWrite records one checkpoint landing on disk.
func (c *Campaign) CheckpointWrite(completed int) {
	if c == nil {
		return
	}
	c.ckptWrites.Inc()
	c.Journal.Emit(EvCheckpointSave, func(e *Enc) { e.Int("completed", int64(completed)) })
}

// CheckpointLoad records a resume preloading completed results. The
// preloaded experiments count as done (they are completed plan rows) —
// the preloaded gauge lets rate math exclude them from exp/s.
func (c *Campaign) CheckpointLoad(results, quarantined int) {
	if c == nil {
		return
	}
	c.ckptLoads.Inc()
	c.preloaded.Set(int64(results + quarantined))
	c.expDone.Add(int64(results + quarantined))
	c.quarantined.Add(int64(quarantined))
	c.Journal.Emit(EvCheckpointLoad, func(e *Enc) {
		e.Int("results", int64(results))
		e.Int("quarantined", int64(quarantined))
	})
}

// BatchStart marks one word-parallel lane batch being claimed by a
// worker: the batches counter, the lane-occupancy histogram (how full
// the 64-lane word was) and the lanes_active gauge. The journal still
// records per-experiment lifecycle, which batches preserve; with a
// tracer the returned batch span (lanes attribute) lets cmd/tracer
// weight kernel time by lane occupancy.
func (c *Campaign) BatchStart(lanes int) Span {
	if c == nil {
		return Span{}
	}
	c.batches.Inc()
	c.laneOccH.Observe(int64(lanes))
	c.lanesActive.Add(int64(lanes))
	if c.Tracer != nil {
		return c.Tracer.start("batch", c.ambient(), 0, "lanes", int64(lanes), nil)
	}
	return Span{}
}

// BatchDone marks a lane batch leaving its worker and closes its span.
func (c *Campaign) BatchDone(sp Span, lanes int) {
	if c == nil {
		return
	}
	c.lanesActive.Add(int64(-lanes))
	sp.End()
}

// AddSimCycles accumulates simulated cycles (golden + faulty runs).
func (c *Campaign) AddSimCycles(n int64) {
	if c == nil {
		return
	}
	c.simCycles.Add(n)
}

// CollapsePlan records the outcome of the static pre-pass over one
// plan: pruned rows were classified without simulation (unobservable,
// untestable or golden-quiescent), collapsed rows will inherit a
// representative's result during the merge. Metrics only — the journal
// schema is unchanged, and the stdout report never sees these numbers.
func (c *Campaign) CollapsePlan(pruned, collapsed int) {
	if c == nil {
		return
	}
	c.staticPrune.Add(int64(pruned))
	c.collapsed.Add(int64(collapsed))
	c.expDone.Add(int64(pruned))
}

// OutcomeInherited records one result row filled by copying a
// simulated representative's outcome through the expansion table.
func (c *Campaign) OutcomeInherited() {
	if c == nil {
		return
	}
	c.inherited.Inc()
	c.expDone.Inc()
}

// LeaseIssued records one range lease handed to a worker (or taken by
// the coordinator's local-fallback runner). Metrics only — the
// distributed layer is scheduling, not campaign semantics, so the
// journal schema is untouched.
func (c *Campaign) LeaseIssued() {
	if c == nil {
		return
	}
	c.leasesOut.Inc()
}

// LeaseExpired records one lease revoked because its TTL lapsed
// without a heartbeat (dead or wedged worker).
func (c *Campaign) LeaseExpired() {
	if c == nil {
		return
	}
	c.leasesExp.Inc()
}

// WorkerRetry records one leased range thrown back on the pending
// queue after its worker failed, vanished or timed out.
func (c *Campaign) WorkerRetry() {
	if c == nil {
		return
	}
	c.workerRetry.Inc()
}

// RangeQuarantined records one plan range abandoned after exhausting
// its lease attempts; every row in it is counted dangerous-undetected.
func (c *Campaign) RangeQuarantined() {
	if c == nil {
		return
	}
	c.rangesQuar.Inc()
}

// WorkerJoined moves the workers_active gauge up when a worker
// completes its hello handshake.
func (c *Campaign) WorkerJoined() {
	if c == nil {
		return
	}
	c.distWorkers.Add(1)
}

// WorkerLeft moves the workers_active gauge down when a worker
// disconnects or is declared dead.
func (c *Campaign) WorkerLeft() {
	if c == nil {
		return
	}
	c.distWorkers.Add(-1)
}

// RangeDone records one leased plan range completing: its row count
// and its observed lease duration, exposed on /metrics as
// range_duration_ms / range_rows.
func (c *Campaign) RangeDone(rows int, d time.Duration) {
	if c == nil {
		return
	}
	c.rangeRowsH.Observe(int64(rows))
	c.rangeDurH.Observe(d.Milliseconds())
}

// Summary emits the end-of-campaign journal event from the live
// counters and closes the open phase span, if any.
func (c *Campaign) Summary() {
	if c == nil {
		return
	}
	c.PhaseDone()
	c.Journal.Emit(EvSummary, func(e *Enc) {
		e.Int("done", c.expDone.Load())
		e.Int("total", c.planTotal.Load())
		e.Int("retries", c.retries.Load())
		e.Int("quarantined", c.quarantined.Load())
		e.Int("checkpoints", c.ckptWrites.Load())
		e.Int("sim_cycles", c.simCycles.Load())
		c.mu.Lock()
		names := make([]string, 0, len(c.outcomes))
		for name := range c.outcomes { //det:order collecting before sort
			names = append(names, name)
		}
		c.mu.Unlock()
		sort.Strings(names)
		for _, name := range names {
			e.Int("n_"+sanitizeKey(name), c.outcomeCounter(name).Load())
		}
	})
}

// outcomeCounter returns the per-outcome counter, creating
// "exp_outcome_<label>" in the registry on first use.
func (c *Campaign) outcomeCounter(outcome string) *Counter {
	c.mu.Lock()
	ctr, ok := c.outcomes[outcome]
	if !ok {
		ctr = c.Registry.Counter("exp_outcome_" + sanitizeKey(outcome))
		c.outcomes[outcome] = ctr
	}
	c.mu.Unlock()
	return ctr
}

// sanitizeKey maps an outcome label onto a metric-name-safe token.
func sanitizeKey(s string) string {
	b := []byte(s)
	for i, ch := range b {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= '0' && ch <= '9', ch == '_':
		case ch >= 'A' && ch <= 'Z':
			b[i] = ch + 'a' - 'A'
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
