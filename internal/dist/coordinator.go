package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/inject"
	"repro/internal/telemetry"
)

// Config parameterizes a Coordinator. Plan and Clock are required;
// everything else has a usable default.
type Config struct {
	// Plan is the full campaign plan. Workers must present the same
	// (PlanHash, len) fingerprint or they are rejected at hello.
	Plan []inject.Injection
	// RangeSize is the number of plan rows per lease (<= 0: 32).
	RangeSize int
	// LeaseTTL is how long a lease survives without a heartbeat
	// (<= 0: 15s).
	LeaseTTL time.Duration
	// MaxAttempts caps lease attempts per range before the range is
	// quarantined (<= 0: 5).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the re-issue delay after a failed
	// attempt: base << (attempt-1), capped (<= 0: 250ms / 10s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Clock supplies every timestamp the coordinator uses. Required:
	// the package never samples the wall clock itself, so lease
	// scheduling is fully testable with a fake clock.
	Clock func() time.Time
	// Adaptive enables latency-driven lease sizing (off by default):
	// the coordinator tracks an EWMA and a fast-up/slow-down tail of
	// per-row lease latency over completed leases and splits oversized
	// pending ranges at issue time so one lease targets ~TargetLease of
	// work. Scheduling only — ranges stay disjoint, plan-ordered and
	// merge-identical, so the report bytes cannot change (asserted by
	// the neutrality matrix).
	Adaptive bool
	// TargetLease is the wall-clock amount of work adaptive sizing aims
	// to put under one lease (<= 0: LeaseTTL/4).
	TargetLease time.Duration
	// MinRange floors adaptive range sizes so pathological tails cannot
	// shatter the plan into single-row leases (<= 0: 4).
	MinRange int
	// Telemetry receives lease/worker counters (nil = off).
	Telemetry *telemetry.Campaign
	// LocalRunner, when set, lets the coordinator execute a range in
	// process — the graceful-degradation path used by Tick whenever a
	// range is runnable and no live worker exists to lease it to. It
	// must return the range's completed partial state (RunRange on a
	// campaign prepared once in cmd/campaignd; any deterministic
	// stand-in under test).
	LocalRunner func(lo, hi int) (*inject.Checkpoint, error)
	// Logf receives human-readable scheduling events (nil = silent).
	// Out-of-band: report bytes never depend on it.
	Logf func(format string, args ...any)
}

type rangeStatus int

const (
	rangePending rangeStatus = iota
	rangeLeased
	rangeDone
	rangeQuarantined
)

// planRange is the coordinator's bookkeeping for one disjoint plan
// slice [lo, hi).
type planRange struct {
	lo, hi    int
	status    rangeStatus
	attempts  int       // lease attempts consumed (failed or expired)
	notBefore time.Time // earliest re-issue time (backoff)
	lastErr   string
	lease     int64     // active lease id while leased
	worker    int64     // worker holding the lease (0 = local runner)
	deadline  time.Time // lease expiry, refreshed by heartbeats
	result    []byte    // canonical checkpoint bytes once done

	issuedAt time.Time      // when the live lease was granted
	span     telemetry.Span // the live lease's span (cleared on end)
}

// leaseRef records which range a lease was issued on and the bounds it
// covered at issue time. Live leases always match their range's current
// bounds (only pending ranges are ever split); a mismatch therefore
// identifies a message from a revoked lease whose range has since been
// narrowed.
type leaseRef struct {
	r      *planRange
	lo, hi int
}

// workerConn is one connected worker. Messages to it go through a
// buffered outbox drained by a writer goroutine, so the coordinator
// never blocks on a slow peer while holding its lock.
type workerConn struct {
	id   int64
	name string
	conn *Conn
	out  chan *Msg
	gone bool
}

// Coordinator owns the lease table for one distributed campaign. Use
// New, feed it connections via Serve (one goroutine per connection),
// drive time via Tick, wait on Done, collect with Result.
type Coordinator struct {
	cfg Config
	// codec holds the plan fingerprint, computed once by New: the hello
	// check, every result validation and Result compare against it.
	codec    inject.Codec
	planHash string

	mu     sync.Mutex
	ranges []*planRange
	// leaseRange maps every lease ever issued to its range, including
	// revoked ones — a late result from a revoked lease must still
	// resolve so it can be byte-verified against the winning attempt
	// instead of silently dropped. It holds the *planRange itself, not
	// an index: adaptive splitting inserts ranges mid-slice, so indices
	// are not stable across a lease's lifetime. Each entry also
	// snapshots the bounds the lease was issued over: a revoked lease's
	// range can be adaptively split (narrowed) before its late result
	// arrives, and a checkpoint covering the original wider bounds must
	// not be byte-compared against a result for the narrower ones.
	leaseRange map[int64]leaseRef
	workers    []*workerConn
	nextWorker int64
	nextLease  int64
	remaining  int // ranges not yet done/quarantined
	failed     error
	finished   bool
	localBusy  bool

	// Adaptive lease sizing state (see adaptive.go): per-row latency
	// EWMA, the fast-up/slow-decay tail estimate, and the number of
	// live-lease completions observed. Pure functions of the lease
	// completion order, so a fake clock makes sizing fully
	// deterministic.
	ewmaRow float64
	tailRow float64
	nObs    int

	done chan struct{}
}

// New builds a coordinator over cfg.Plan. The campaign is complete
// when every range is done or quarantined; an empty plan completes
// immediately.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Clock == nil {
		return nil, errors.New("dist: Config.Clock is required")
	}
	if cfg.RangeSize <= 0 {
		cfg.RangeSize = 32
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 250 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 10 * time.Second
	}
	if cfg.TargetLease <= 0 {
		cfg.TargetLease = cfg.LeaseTTL / 4
	}
	if cfg.MinRange <= 0 {
		cfg.MinRange = 4
	}
	if cfg.MinRange > cfg.RangeSize {
		cfg.MinRange = cfg.RangeSize
	}
	codec := inject.NewCodec(cfg.Plan)
	c := &Coordinator{
		cfg:        cfg,
		codec:      codec,
		planHash:   fmt.Sprintf("%016x", codec.PlanHash()),
		leaseRange: map[int64]leaseRef{},
		done:       make(chan struct{}),
	}
	for lo := 0; lo < len(cfg.Plan); lo += cfg.RangeSize {
		hi := lo + cfg.RangeSize
		if hi > len(cfg.Plan) {
			hi = len(cfg.Plan)
		}
		c.ranges = append(c.ranges, &planRange{lo: lo, hi: hi})
	}
	c.remaining = len(c.ranges)
	if c.remaining == 0 {
		c.finished = true
		close(c.done)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Done is closed when every range is done or quarantined, or the
// campaign failed terminally.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the terminal campaign error, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// Serve runs the protocol for one worker connection until it
// disconnects or the campaign ends. Call it in its own goroutine per
// accepted connection; it closes rw before returning.
func (c *Coordinator) Serve(rw io.ReadWriteCloser) error {
	conn := NewConn(rw)
	defer conn.Close()

	hello, err := conn.Read()
	if err != nil {
		return fmt.Errorf("dist: coordinator: hello: %w", err)
	}
	if hello.T != MsgHello {
		conn.Write(&Msg{T: MsgError, Err: "expected hello"})
		return errors.New("dist: coordinator: peer did not hello")
	}
	if hello.V != ProtocolVersion {
		conn.Write(&Msg{T: MsgError, Err: fmt.Sprintf("protocol version %d, want %d", hello.V, ProtocolVersion)})
		return fmt.Errorf("dist: coordinator: worker %q speaks protocol %d", hello.Worker, hello.V)
	}
	if hello.PlanHash != c.planHash || hello.PlanLen != len(c.cfg.Plan) {
		conn.Write(&Msg{T: MsgError, Err: fmt.Sprintf(
			"plan mismatch: worker has %s/%d, coordinator has %s/%d",
			hello.PlanHash, hello.PlanLen, c.planHash, len(c.cfg.Plan))})
		return fmt.Errorf("dist: coordinator: worker %q plan mismatch", hello.Worker)
	}

	w := &workerConn{name: hello.Worker, conn: conn, out: make(chan *Msg, 16)}

	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		conn.Write(&Msg{T: MsgFin})
		return nil
	}
	c.nextWorker++
	w.id = c.nextWorker
	c.workers = append(c.workers, w)
	c.cfg.Telemetry.WorkerJoined()
	c.logf("worker %q joined (#%d)", w.name, w.id)
	c.assignLocked(w, c.cfg.Clock())
	c.mu.Unlock()

	// Writer goroutine: drains the outbox so lease grants never block
	// the coordinator lock on a slow peer.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for m := range w.out {
			if err := conn.Write(m); err != nil {
				return
			}
		}
	}()

	var readErr error
	for {
		m, err := conn.Read()
		if err != nil {
			readErr = err
			break
		}
		switch m.T {
		case MsgHeartbeat:
			c.heartbeat(m.Lease)
		case MsgResult:
			c.result(w, m)
		case MsgFail:
			c.fail(w, m)
		default:
			readErr = fmt.Errorf("dist: coordinator: unexpected %q from worker %q", m.T, w.name)
		}
		if readErr != nil {
			break
		}
	}

	c.disconnect(w)
	close(w.out)
	<-writerDone
	if errors.Is(readErr, io.EOF) {
		return nil
	}
	return readErr
}

// send enqueues m for w; a full outbox marks the worker gone (it has
// stopped draining — the disconnect path will reclaim its lease).
func (c *Coordinator) sendLocked(w *workerConn, m *Msg) {
	if w.gone {
		return
	}
	select {
	case w.out <- m:
	default:
		w.gone = true
	}
}

// assignLocked hands the next runnable range to w, if any. Idle
// workers are retried on every Tick, so "nothing runnable right now"
// (all leased, or all backing off) is not a terminal state.
func (c *Coordinator) assignLocked(w *workerConn, now time.Time) {
	if c.finished || w.gone {
		return
	}
	ri := c.runnableLocked(now)
	if ri < 0 {
		return
	}
	r := c.splitForIssueLocked(ri)
	c.nextLease++
	r.status = rangeLeased
	r.lease = c.nextLease
	r.worker = w.id
	r.deadline = now.Add(c.cfg.LeaseTTL)
	r.issuedAt = now
	c.leaseRange[r.lease] = leaseRef{r: r, lo: r.lo, hi: r.hi}
	c.cfg.Telemetry.LeaseIssued()
	c.startLeaseSpanLocked(r, w.id)
	c.logf("lease %d: range [%d,%d) -> worker %q (attempt %d)", r.lease, r.lo, r.hi, w.name, r.attempts+1)
	m := &Msg{
		T:     MsgLease,
		Lease: r.lease,
		Lo:    r.lo,
		Hi:    r.hi,
		TTLMs: c.cfg.LeaseTTL.Milliseconds(),
		Span:  r.span.ID(),
	}
	m.Trace, _ = c.cfg.Telemetry.TraceContext()
	c.sendLocked(w, m)
}

// startLeaseSpanLocked opens the lease's span (no-op without a
// tracer), recording the lease id, bounds, holder and attempt number.
func (c *Coordinator) startLeaseSpanLocked(r *planRange, worker int64) {
	if _, ok := c.cfg.Telemetry.TraceContext(); !ok {
		return
	}
	lease, lo, hi, attempt := r.lease, r.lo, r.hi, r.attempts+1
	r.span = c.cfg.Telemetry.StartSpanAttrs("lease", func(e *telemetry.Enc) {
		e.Int("lease", lease)
		e.Int("lo", int64(lo))
		e.Int("hi", int64(hi))
		e.Int("worker", worker)
		e.Int("attempt", int64(attempt))
	})
}

// endLeaseSpanLocked closes the range's live lease span exactly once:
// the span is cleared so a later completion of the same range (a
// duplicate, or a revoke racing a result) cannot double-close it.
func (c *Coordinator) endLeaseSpanLocked(r *planRange, outcome string) {
	if r.span.Valid() {
		r.span.EndOutcome(outcome)
		r.span = telemetry.Span{}
	}
}

// runnableLocked returns the lowest-index pending range whose backoff
// has elapsed, or -1.
func (c *Coordinator) runnableLocked(now time.Time) int {
	for i, r := range c.ranges {
		if r.status == rangePending && !now.Before(r.notBefore) {
			return i
		}
	}
	return -1
}

// idleLocked reports whether w holds no lease.
func (c *Coordinator) idleLocked(w *workerConn) bool {
	for _, r := range c.ranges {
		if r.status == rangeLeased && r.worker == w.id {
			return false
		}
	}
	return true
}

func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.gone {
			n++
		}
	}
	return n
}

// heartbeat extends the deadline of a still-current lease. Heartbeats
// for revoked or completed leases are stale echoes and ignored.
func (c *Coordinator) heartbeat(lease int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.leaseRange[lease]
	if !ok {
		return
	}
	if r := ref.r; r.status == rangeLeased && r.lease == lease {
		r.deadline = c.cfg.Clock().Add(c.cfg.LeaseTTL)
	}
}

// result ingests one completed range from a worker: decode, validate
// exact coverage of the leased bounds, then either complete the range
// or — if another attempt already completed it — verify the duplicate
// is byte-identical. A divergent duplicate is a determinism violation
// and fails the whole campaign: silently picking one of two different
// answers would forfeit the bit-identical merge contract.
func (c *Coordinator) result(w *workerConn, m *Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.leaseRange[m.Lease]
	if !ok {
		return // lease id we never issued: bogus peer, drop
	}
	r := ref.r
	if ref.lo != r.lo || ref.hi != r.hi {
		// The lease was issued over bounds an adaptive split has since
		// narrowed, so this is a late echo from a revoked attempt whose
		// checkpoint covers a different row span than any current range
		// — it cannot be byte-verified against the winning attempt, and
		// it is not a determinism violation. Drop it; every row of the
		// old bounds completes under the post-split leases.
		c.logf("stale result for revoked lease %d over pre-split bounds [%d,%d) ignored (range now [%d,%d))",
			m.Lease, ref.lo, ref.hi, r.lo, r.hi)
		c.assignLocked(w, c.cfg.Clock())
		return
	}
	switch r.status {
	case rangeDone:
		// At-least-once execution: a revoked-then-re-issued lease can
		// complete twice. Duplicates must agree byte-for-byte.
		if !bytes.Equal(m.Ckpt, r.result) {
			c.failLocked(fmt.Errorf(
				"dist: determinism violation: range [%d,%d) produced two different results (leases %d and %d)",
				r.lo, r.hi, r.lease, m.Lease))
			return
		}
		c.logf("duplicate result for range [%d,%d) verified identical", r.lo, r.hi)
	case rangeQuarantined:
		// Quarantine is final: once rows were written off as
		// dangerous-undetected, a racing late success may not rewrite
		// the accounting.
		c.logf("late result for quarantined range [%d,%d) ignored", r.lo, r.hi)
	default: // leased (current or superseded lease) or pending after a revoke
		if err := c.validateResultLocked(r, m.Ckpt); err != nil {
			c.logf("worker %q returned bad result for range [%d,%d): %v", w.name, r.lo, r.hi, err)
			if r.status == rangeLeased && r.lease == m.Lease {
				c.cfg.Telemetry.WorkerRetry()
				c.endLeaseSpanLocked(r, "failed")
				c.requeueLocked(r, err.Error())
			}
			c.assignLocked(w, c.cfg.Clock())
			return
		}
		// Latency is only meaningful when the completing lease is the
		// live one — a late result from a revoked lease measures a
		// worker that already blew its TTL, not current fleet speed.
		// Span attribution follows the same split: an open span here
		// belongs to the live lease, and when a revoked lease's late
		// result wins the race, the live worker is still running — its
		// span ends "superseded", not "done".
		if r.status == rangeLeased && r.lease == m.Lease {
			c.observeLeaseLocked(r.hi-r.lo, c.cfg.Clock().Sub(r.issuedAt))
			c.endLeaseSpanLocked(r, "done")
		} else {
			c.endLeaseSpanLocked(r, "superseded")
		}
		r.status = rangeDone
		r.result = m.Ckpt
		r.lastErr = ""
		c.remaining--
		c.logf("range [%d,%d) done (%d remaining)", r.lo, r.hi, c.remaining)
	}
	if c.remaining == 0 {
		c.finishLocked()
		return
	}
	c.assignLocked(w, c.cfg.Clock())
}

// validateResultLocked checks that ckpt decodes against the plan and
// covers exactly [r.lo, r.hi): every plan index present once, none
// outside the bounds. Decode already enforces CRCs, plan identity,
// ordering and uniqueness.
func (c *Coordinator) validateResultLocked(r *planRange, ckpt []byte) error {
	ck, err := c.codec.Decode(ckpt)
	if err != nil {
		return err
	}
	covered := 0
	for _, res := range ck.Results {
		if res.PlanIndex < r.lo || res.PlanIndex >= r.hi {
			return fmt.Errorf("dist: result index %d outside leased range [%d,%d)", res.PlanIndex, r.lo, r.hi)
		}
		covered++
	}
	for _, q := range ck.Quarantined {
		if q.PlanIndex < r.lo || q.PlanIndex >= r.hi {
			return fmt.Errorf("dist: quarantine index %d outside leased range [%d,%d)", q.PlanIndex, r.lo, r.hi)
		}
		covered++
	}
	if covered != r.hi-r.lo {
		return fmt.Errorf("dist: result covers %d of %d rows in range [%d,%d)", covered, r.hi-r.lo, r.lo, r.hi)
	}
	return nil
}

// fail ingests a worker's explicit failure report for its lease.
func (c *Coordinator) fail(w *workerConn, m *Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.leaseRange[m.Lease]
	if !ok {
		return
	}
	r := ref.r
	if r.status != rangeLeased || r.lease != m.Lease {
		return // stale failure report for a lease already revoked
	}
	c.logf("worker %q failed lease %d on range [%d,%d): %s", w.name, m.Lease, r.lo, r.hi, m.Err)
	c.cfg.Telemetry.WorkerRetry()
	c.endLeaseSpanLocked(r, "failed")
	c.requeueLocked(r, m.Err)
	c.assignLocked(w, c.cfg.Clock())
}

// disconnect reclaims whatever w was holding. Losing a worker is the
// same event as a failed lease: attempt consumed, backoff, re-issue.
func (c *Coordinator) disconnect(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.id == 0 {
		return
	}
	for i, ww := range c.workers {
		if ww.id == w.id {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	c.cfg.Telemetry.WorkerLeft()
	c.logf("worker %q left", w.name)
	for _, r := range c.ranges {
		if r.status == rangeLeased && r.worker == w.id {
			c.cfg.Telemetry.WorkerRetry()
			c.endLeaseSpanLocked(r, "failed")
			c.requeueLocked(r, "worker disconnected")
		}
	}
	c.reassignIdleLocked(c.cfg.Clock())
}

// requeueLocked returns range ri to the pending queue after a failed
// attempt, applying capped exponential backoff — or quarantines it
// once the attempt budget is spent. Quarantine is conservative λDU
// accounting, not data loss: Result synthesizes a dangerous-undetected
// quarantine record for every row of the range, mirroring the per-
// experiment semantics of the supervised runner.
func (c *Coordinator) requeueLocked(r *planRange, errText string) {
	c.endLeaseSpanLocked(r, "failed") // no-op when the caller already closed it
	r.attempts++
	r.lastErr = errText
	r.lease = 0
	r.worker = 0
	if r.attempts >= c.cfg.MaxAttempts {
		r.status = rangeQuarantined
		c.remaining--
		c.cfg.Telemetry.RangeQuarantined()
		c.logf("range [%d,%d) quarantined after %d attempts: %s", r.lo, r.hi, r.attempts, errText)
		if c.remaining == 0 {
			c.finishLocked()
		}
		return
	}
	r.status = rangePending
	backoff := c.cfg.BackoffBase << (r.attempts - 1)
	if backoff > c.cfg.BackoffCap || backoff <= 0 {
		backoff = c.cfg.BackoffCap
	}
	r.notBefore = c.cfg.Clock().Add(backoff)
}

// reassignIdleLocked offers runnable ranges to every idle worker.
func (c *Coordinator) reassignIdleLocked(now time.Time) {
	for _, w := range c.workers {
		if !w.gone && c.idleLocked(w) {
			c.assignLocked(w, now)
		}
	}
}

// Tick advances lease bookkeeping: expire TTL-lapsed leases, re-offer
// runnable ranges to idle workers, and — when no live worker exists —
// run runnable ranges locally through cfg.LocalRunner (graceful
// degradation down to coordinator-only execution). Call it
// periodically; the cadence bounds dead-worker detection latency.
func (c *Coordinator) Tick() {
	now := c.cfg.Clock()

	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	for _, r := range c.ranges {
		if r.status == rangeLeased && r.worker != 0 && now.After(r.deadline) {
			c.cfg.Telemetry.LeaseExpired()
			c.cfg.Telemetry.WorkerRetry()
			c.logf("lease %d on range [%d,%d) expired (worker #%d silent past TTL)", r.lease, r.lo, r.hi, r.worker)
			c.endLeaseSpanLocked(r, "expired")
			c.requeueLocked(r, "lease expired: no heartbeat within TTL")
		}
	}
	if !c.finished {
		c.reassignIdleLocked(now)
	}
	c.mu.Unlock()

	c.runLocal()
}

// runLocal executes runnable ranges in process while no live worker
// can take them. The range runs outside the coordinator lock; its
// completion flows through the same validation and duplicate checks
// as a worker result.
func (c *Coordinator) runLocal() {
	if c.cfg.LocalRunner == nil {
		return
	}
	for {
		now := c.cfg.Clock()
		c.mu.Lock()
		if c.finished || c.localBusy || c.liveWorkersLocked() > 0 {
			c.mu.Unlock()
			return
		}
		ri := c.runnableLocked(now)
		if ri < 0 {
			c.mu.Unlock()
			return
		}
		// Hold the range by pointer across the unlock: adaptive splits
		// can insert ranges mid-slice while the local runner is out, so
		// slice indices are not stable (the pointer is).
		r := c.splitForIssueLocked(ri)
		c.nextLease++
		lease := c.nextLease
		r.status = rangeLeased
		r.lease = lease
		r.worker = 0 // local leases have no TTL: the runner is us
		r.issuedAt = now
		c.leaseRange[lease] = leaseRef{r: r, lo: r.lo, hi: r.hi}
		c.localBusy = true
		lo, hi := r.lo, r.hi
		c.cfg.Telemetry.LeaseIssued()
		c.startLeaseSpanLocked(r, 0)
		c.logf("lease %d: range [%d,%d) -> local runner (no live workers)", lease, lo, hi)
		c.mu.Unlock()

		ck, err := c.cfg.LocalRunner(lo, hi)

		c.mu.Lock()
		c.localBusy = false
		if c.finished {
			c.mu.Unlock()
			return
		}
		switch {
		case err != nil:
			if r.status == rangeLeased && r.lease == lease {
				c.cfg.Telemetry.WorkerRetry()
				c.endLeaseSpanLocked(r, "failed")
				c.requeueLocked(r, "local: "+err.Error())
			}
		case r.status == rangeDone:
			// A late worker result completed the range while we ran it
			// locally: verify ours is byte-identical, as for any
			// duplicate.
			if !bytes.Equal(c.codec.Encode(ck), r.result) {
				c.failLocked(fmt.Errorf(
					"dist: determinism violation: range [%d,%d) produced two different results (local lease %d)",
					lo, hi, lease))
			}
		case r.status == rangeQuarantined:
			// Quarantine is final; see result().
		default:
			enc := c.codec.Encode(ck)
			if verr := c.validateResultLocked(r, enc); verr != nil {
				c.cfg.Telemetry.WorkerRetry()
				c.endLeaseSpanLocked(r, "failed")
				c.requeueLocked(r, "local: "+verr.Error())
			} else {
				if r.status == rangeLeased && r.lease == lease {
					c.observeLeaseLocked(hi-lo, c.cfg.Clock().Sub(r.issuedAt))
					c.endLeaseSpanLocked(r, "done")
				} else {
					c.endLeaseSpanLocked(r, "superseded")
				}
				r.status = rangeDone
				r.result = enc
				r.lastErr = ""
				c.remaining--
				c.logf("range [%d,%d) done locally (%d remaining)", lo, hi, c.remaining)
				if c.remaining == 0 {
					c.finishLocked()
				}
			}
		}
		c.mu.Unlock()
	}
}

// finishLocked completes the campaign: tell every worker to exit
// cleanly and release Done waiters.
func (c *Coordinator) finishLocked() {
	if c.finished {
		return
	}
	c.finished = true
	for _, w := range c.workers {
		c.sendLocked(w, &Msg{T: MsgFin})
	}
	close(c.done)
}

// failLocked ends the campaign with a terminal error.
func (c *Coordinator) failLocked(err error) {
	if c.finished {
		return
	}
	c.failed = err
	c.finished = true
	c.logf("campaign failed: %v", err)
	for _, w := range c.workers {
		c.sendLocked(w, &Msg{T: MsgError, Err: err.Error()})
	}
	close(c.done)
}

// Fail ends the campaign with a terminal error (e.g. the process is
// shutting down).
func (c *Coordinator) Fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(err)
}

// Result assembles the merged campaign state after Done. Ranges are
// concatenated in plan order — each range's records are already
// index-sorted (the canonical checkpoint encoding guarantees it), so
// the merged checkpoint is exactly what a single-process run would
// have snapshotted. Quarantined ranges contribute one conservative
// dangerous-undetected quarantine record per plan row.
func (c *Coordinator) Result() (*inject.Checkpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished {
		return nil, errors.New("dist: campaign still running")
	}
	if c.failed != nil {
		return nil, c.failed
	}
	merged := &inject.Checkpoint{}
	for _, r := range c.ranges {
		switch r.status {
		case rangeDone:
			ck, err := c.codec.Decode(r.result)
			if err != nil {
				return nil, fmt.Errorf("dist: stored result for range [%d,%d) corrupt: %w", r.lo, r.hi, err)
			}
			merged.Results = append(merged.Results, ck.Results...)
			merged.Quarantined = append(merged.Quarantined, ck.Quarantined...)
		case rangeQuarantined:
			for i := r.lo; i < r.hi; i++ {
				merged.Quarantined = append(merged.Quarantined, inject.Quarantined{
					PlanIndex: i,
					Injection: c.cfg.Plan[i],
					Attempts:  r.attempts,
					Err:       "range quarantined: " + r.lastErr,
				})
			}
		default:
			return nil, fmt.Errorf("dist: range [%d,%d) neither done nor quarantined", r.lo, r.hi)
		}
	}
	return merged, nil
}

// Quarantined reports how many ranges ended quarantined.
func (c *Coordinator) Quarantined() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.ranges {
		if r.status == rangeQuarantined {
			n++
		}
	}
	return n
}
