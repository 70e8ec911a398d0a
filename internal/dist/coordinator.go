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
// slice [lo, hi), fixed by New.
type planRange struct {
	lo, hi    int
	status    rangeStatus
	attempts  int       // lease attempts consumed (failed or expired)
	notBefore time.Time // earliest re-issue time (backoff)
	lastErr   string
	lease     int64              // live lease id while leased, the winning one once done
	worker    int64              // worker holding the lease (0 = local runner)
	deadline  time.Time          // lease expiry, refreshed by heartbeats
	result    []byte             // canonical checkpoint bytes once done
	ck        *inject.Checkpoint // result as validation decoded it; Result merges it

	issuedAt time.Time      // when the live lease was granted
	span     telemetry.Span // the live lease's span (cleared on end)
}

// workerConn is one connected worker. Messages to it go through a
// buffered outbox drained by a writer goroutine, so the coordinator
// never blocks on a slow peer while holding its lock.
type workerConn struct {
	id    int64
	name  string
	label string // `worker "name"`, for the scheduling log
	conn  *Conn
	out   chan *Msg
	gone  bool
}

// Coordinator owns the lease table for one distributed campaign. Use
// New, feed it connections via Serve (one goroutine per connection),
// drive time via Tick, wait on Done, collect with Result.
type Coordinator struct {
	cfg Config
	// codec holds the plan fingerprint, computed once by New: the hello
	// check and every result validation compare against it.
	codec    inject.Codec
	planHash string

	mu     sync.Mutex
	ranges []*planRange
	// leaseRange maps every lease ever issued to its range, including
	// revoked ones — a late result from a revoked lease must still
	// resolve so it can be byte-verified against the winning attempt
	// instead of silently dropped.
	leaseRange map[int64]*planRange
	workers    []*workerConn
	nextWorker int64
	nextLease  int64
	remaining  int // ranges not yet done/quarantined
	failed     error
	finished   bool
	localBusy  bool

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
	codec := inject.NewCodec(cfg.Plan)
	c := &Coordinator{
		cfg:        cfg,
		codec:      codec,
		planHash:   fmt.Sprintf("%016x", codec.PlanHash()),
		leaseRange: map[int64]*planRange{},
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

	w := &workerConn{name: hello.Worker, label: fmt.Sprintf("worker %q", hello.Worker), conn: conn, out: make(chan *Msg, 16)}

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
	r := c.grantLocked(w.id, w.label, now)
	if r == nil {
		return
	}
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

// grantLocked leases the lowest-index pending range whose backoff has
// elapsed to worker — 0 is the local runner, whose lease Tick never
// expires — and returns it, or nil when nothing is runnable.
func (c *Coordinator) grantLocked(worker int64, holder string, now time.Time) *planRange {
	var r *planRange
	for _, p := range c.ranges {
		if p.status == rangePending && !now.Before(p.notBefore) {
			r = p
			break
		}
	}
	if r == nil {
		return nil
	}
	c.nextLease++
	r.status = rangeLeased
	r.lease = c.nextLease
	r.worker = worker
	r.deadline = now.Add(c.cfg.LeaseTTL)
	r.issuedAt = now
	c.leaseRange[r.lease] = r
	c.cfg.Telemetry.LeaseIssued()
	c.startLeaseSpanLocked(r, worker)
	c.logf("lease %d: range [%d,%d) -> %s (attempt %d)", r.lease, r.lo, r.hi, holder, r.attempts+1)
	return r
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

// heldBy reports whether lease is r's live lease.
func (r *planRange) heldBy(lease int64) bool {
	return r.status == rangeLeased && r.lease == lease
}

// heartbeat extends the deadline of a still-current lease. Heartbeats
// for revoked or completed leases are stale echoes and ignored.
func (c *Coordinator) heartbeat(lease int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.leaseRange[lease]; ok && r.heldBy(lease) {
		r.deadline = c.cfg.Clock().Add(c.cfg.LeaseTTL)
	}
}

// result ingests one completed range from a worker and offers the
// worker its next range.
func (c *Coordinator) result(w *workerConn, m *Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.leaseRange[m.Lease]
	if !ok {
		return // lease id we never issued: bogus peer, drop
	}
	c.completeLocked(r, m.Lease, m.Ckpt, w.label)
	c.assignLocked(w, c.cfg.Clock())
}

// completeLocked ingests the canonical checkpoint ckpt that lease
// produced for range r, from a worker or the local runner. Execution
// is at-least-once, so r may already be settled. A duplicate of a done
// range must match the winning attempt byte-for-byte; a divergent one
// is a determinism violation and fails the whole campaign, since
// silently picking one of two different answers would forfeit the
// bit-identical merge contract. Quarantine is final: once rows were
// written off as dangerous-undetected, a racing late success may not
// rewrite the accounting. Otherwise ckpt is validated: a bad one fails
// the lease if it is still live, a good one completes the range.
func (c *Coordinator) completeLocked(r *planRange, lease int64, ckpt []byte, from string) {
	switch r.status {
	case rangeDone:
		if !bytes.Equal(ckpt, r.result) {
			c.failLocked(fmt.Errorf(
				"dist: determinism violation: range [%d,%d) produced two different results (leases %d and %d)",
				r.lo, r.hi, r.lease, lease))
			return
		}
		c.logf("duplicate result for range [%d,%d) verified identical", r.lo, r.hi)
		return
	case rangeQuarantined:
		c.logf("late result for quarantined range [%d,%d) ignored", r.lo, r.hi)
		return
	}
	ck, err := c.validateResultLocked(r, ckpt)
	if err != nil {
		c.logf("%s returned bad result for range [%d,%d): %v", from, r.lo, r.hi, err)
		c.failLeaseLocked(r, lease, err.Error())
		return
	}
	// Latency is only meaningful when the completing lease is the live
	// one — a late result from a revoked lease measures a worker that
	// already blew its TTL, not current fleet speed. Span attribution
	// follows the same split: when a revoked lease's late result wins
	// the race, the live holder is still running — its span ends
	// "superseded", not "done".
	if r.heldBy(lease) {
		c.cfg.Telemetry.RangeDone(r.hi-r.lo, c.cfg.Clock().Sub(r.issuedAt))
		c.endLeaseSpanLocked(r, "done")
	} else {
		c.endLeaseSpanLocked(r, "superseded")
	}
	r.status = rangeDone
	r.lease = lease // the winner, named when a duplicate diverges
	r.result, r.ck = ckpt, ck
	r.lastErr = ""
	c.remaining--
	c.logf("range [%d,%d) done by %s (%d remaining)", r.lo, r.hi, from, c.remaining)
	if c.remaining == 0 {
		c.finishLocked()
	}
}

// validateResultLocked decodes ckpt against the plan and checks that
// it covers exactly [r.lo, r.hi): every plan index present once, none
// outside the bounds. Decode already enforces CRCs, plan identity,
// ordering and uniqueness. It returns the decoded checkpoint, which
// Result merges.
func (c *Coordinator) validateResultLocked(r *planRange, ckpt []byte) (*inject.Checkpoint, error) {
	ck, err := c.codec.Decode(ckpt)
	if err != nil {
		return nil, err
	}
	covered := 0
	for _, res := range ck.Results {
		if res.PlanIndex < r.lo || res.PlanIndex >= r.hi {
			return nil, fmt.Errorf("dist: result index %d outside leased range [%d,%d)", res.PlanIndex, r.lo, r.hi)
		}
		covered++
	}
	for _, q := range ck.Quarantined {
		if q.PlanIndex < r.lo || q.PlanIndex >= r.hi {
			return nil, fmt.Errorf("dist: quarantine index %d outside leased range [%d,%d)", q.PlanIndex, r.lo, r.hi)
		}
		covered++
	}
	if covered != r.hi-r.lo {
		return nil, fmt.Errorf("dist: result covers %d of %d rows in range [%d,%d)", covered, r.hi-r.lo, r.lo, r.hi)
	}
	return ck, nil
}

// fail ingests a worker's explicit failure report for its lease.
func (c *Coordinator) fail(w *workerConn, m *Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.leaseRange[m.Lease]
	if !ok || !r.heldBy(m.Lease) {
		return // stale failure report for a lease already revoked
	}
	c.logf("worker %q failed lease %d on range [%d,%d): %s", w.name, m.Lease, r.lo, r.hi, m.Err)
	c.failLeaseLocked(r, m.Lease, m.Err)
	c.assignLocked(w, c.cfg.Clock())
}

// failLeaseLocked consumes an attempt on r if lease is still its live
// lease: a worker's failure report or disconnect, a bad checkpoint, a
// local runner error. A revoked lease's failure changes nothing.
func (c *Coordinator) failLeaseLocked(r *planRange, lease int64, errText string) {
	if !r.heldBy(lease) {
		return
	}
	c.cfg.Telemetry.WorkerRetry()
	c.requeueLocked(r, errText)
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
			c.failLeaseLocked(r, r.lease, "worker disconnected")
		}
	}
	c.reassignIdleLocked(c.cfg.Clock())
}

// requeueLocked returns range r to the pending queue after a failed
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
			c.logf("lease %d on range [%d,%d) expired (worker #%d silent past TTL)", r.lease, r.lo, r.hi, r.worker)
			c.endLeaseSpanLocked(r, "expired")
			c.failLeaseLocked(r, r.lease, "lease expired: no heartbeat within TTL")
		}
	}
	if !c.finished {
		c.reassignIdleLocked(now)
	}
	c.mu.Unlock()

	c.runLocal()
}

// runLocal executes runnable ranges in process while no live worker
// can take them. The range runs outside the coordinator lock; it is
// granted and completed through the same functions as a worker's
// lease, so its result gets the same validation and duplicate checks.
func (c *Coordinator) runLocal() {
	if c.cfg.LocalRunner == nil {
		return
	}
	for {
		c.mu.Lock()
		if c.finished || c.localBusy || c.liveWorkersLocked() > 0 {
			c.mu.Unlock()
			return
		}
		r := c.grantLocked(0, "local runner (no live workers)", c.cfg.Clock())
		if r == nil {
			c.mu.Unlock()
			return
		}
		lease := r.lease
		c.localBusy = true
		c.mu.Unlock()

		ck, err := c.cfg.LocalRunner(r.lo, r.hi)

		c.mu.Lock()
		c.localBusy = false
		switch {
		case c.finished: // failed, or a worker settled the last range meanwhile
		case err != nil:
			c.failLeaseLocked(r, lease, "local: "+err.Error())
		default:
			c.completeLocked(r, lease, c.codec.Encode(ck), "local runner")
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
			merged.Results = append(merged.Results, r.ck.Results...)
			merged.Quarantined = append(merged.Quarantined, r.ck.Quarantined...)
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
