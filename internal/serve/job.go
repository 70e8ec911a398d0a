package serve

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/telemetry"
)

// EngineVersion labels the assessment engine generation inside the
// cache keys. Cached evidence is only valid within one engine
// generation, so bump this with any change that can alter report bytes
// (new worksheet columns, changed plan generation, ...).
const EngineVersion = "e24"

// Submission is the POST /jobs payload: the campaign-defining design
// spec (the dist.Spec fields), the inject.PlanConfig knobs and the
// grading knobs of core.Options. Zero-valued fields take the
// cmd/certify defaults after normalization, so {"design":"v2",
// "validate":true} grades the paper's memory subsystem exactly as
// `certify -design v2 -validate` does — byte for byte.
type Submission struct {
	// Design is a design-catalogue name that has a DUT (designs.CheckDUT).
	Design string `json:"design"`
	// AddrWidth and Words shape the memory designs and their March
	// workload (ignored by the CPU designs).
	AddrWidth int `json:"addr_width,omitempty"`
	Words     int `json:"words,omitempty"`
	// Transient/Permanent are per-zone experiment counts; Wide is the
	// wide/global experiment count; Seed drives plan construction.
	Transient int    `json:"transient,omitempty"`
	Permanent int    `json:"permanent,omitempty"`
	Wide      int    `json:"wide,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// TargetSIL/HFT/Tolerance are the grading knobs.
	TargetSIL int     `json:"target_sil,omitempty"`
	HFT       int     `json:"hft,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
	// Validate runs the full fault-injection validation (the slow,
	// campaign-bearing half of the flow).
	Validate bool `json:"validate,omitempty"`
}

// normalize fills the cmd/certify defaults into zero fields. It runs
// before the cache key is computed, so an explicit {"addr_width":8}
// and an omitted addr_width are the same submission — and the same
// cache entry.
func (s *Submission) normalize() {
	if s.AddrWidth == 0 {
		s.AddrWidth = designs.DefaultAddr
	}
	if s.Words == 0 {
		s.Words = designs.DefaultWords
	}
	if s.Transient == 0 {
		s.Transient = 1
	}
	if s.Permanent == 0 {
		s.Permanent = 1
	}
	if s.Wide == 0 {
		s.Wide = core.DefaultOptions().WideFaults
	}
	if s.Seed == 0 {
		s.Seed = designs.DefaultSeed
	}
	if s.TargetSIL == 0 {
		s.TargetSIL = int(iec61508.SIL3)
	}
	if s.Tolerance == 0 {
		s.Tolerance = core.DefaultOptions().Tolerance
	}
}

// validate bounds every knob. The daemon is multi-tenant: one oversized
// submission must not be able to pin a worker for hours, so the shape
// parameters are clamped to the scale the case studies exercise.
func (s *Submission) validate() error {
	if err := designs.CheckDUT(s.Design); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	check := func(name string, v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("serve: %s %d out of range [%d, %d]", name, v, lo, hi)
		}
		return nil
	}
	for _, c := range []struct {
		name      string
		v, lo, hi int
	}{
		{"addr_width", s.AddrWidth, 3, 12},
		{"words", s.Words, 1, 256},
		{"transient", s.Transient, 1, 64},
		{"permanent", s.Permanent, 1, 64},
		{"wide", s.Wide, 1, 256},
		{"target_sil", s.TargetSIL, 1, 4},
		{"hft", s.HFT, 0, 2},
	} {
		if err := check(c.name, c.v, c.lo, c.hi); err != nil {
			return err
		}
	}
	if s.Tolerance < 0 || s.Tolerance > 1 {
		return fmt.Errorf("serve: tolerance %g out of range [0, 1]", s.Tolerance)
	}
	return nil
}

// spec maps the campaign-defining fields onto the shared dist.Spec —
// the same canonical identity the distributed coordinator/worker
// handshake is built on.
func (s Submission) spec() dist.Spec {
	return dist.Spec{
		Design: s.Design, AddrWidth: s.AddrWidth, Words: s.Words,
		Transient: s.Transient, Permanent: s.Permanent, Wide: s.Wide,
		Seed: s.Seed,
	}
}

// Key is the submission's content address: an FNV-1a hash over the
// canonical spec rendering (dist.Spec.Key), the grading knobs and the
// engine version. Identical normalized submissions map to the same
// key; it names the job's report, and seeds its trace id.
func (s Submission) Key() string {
	h := telemetry.TraceID("serve", EngineVersion, s.spec().Key(),
		strconv.Itoa(s.TargetSIL), strconv.Itoa(s.HFT),
		strconv.FormatFloat(s.Tolerance, 'g', -1, 64),
		strconv.FormatBool(s.Validate))
	return fmt.Sprintf("%016x", h)
}

// evidenceKey addresses what the submission's campaign measures: the
// engine version, the spec and whether it validates — not the grading
// knobs, which core.Assess never reads. Submissions that differ only
// in TargetSIL, HFT or Tolerance share one cached core.Evidence.
func (s Submission) evidenceKey() string {
	h := telemetry.TraceID("serve-evidence", EngineVersion, s.spec().Key(),
		strconv.FormatBool(s.Validate))
	return fmt.Sprintf("%016x", h)
}

// dut builds the design under test from the catalogue, as cmd/certify
// does, so a served report is byte-identical to the CLI's.
func (s Submission) dut() (core.DUT, error) {
	return designs.BuildDUT(s.Design, s.AddrWidth, s.Words, s.Seed)
}

// options maps the submission onto core.Options the way cmd/certify
// maps its flags — DefaultOptions plus the submitted knobs.
func (s Submission) options() core.Options {
	opts := core.DefaultOptions()
	opts.TargetSIL = iec61508.SIL(s.TargetSIL)
	opts.HFT = s.HFT
	opts.RunValidation = s.Validate
	opts.Plan = inject.PlanConfig{
		TransientPerZone: s.Transient,
		PermanentPerZone: s.Permanent,
		Seed:             s.Seed,
	}
	opts.WideFaults = s.Wide
	opts.Tolerance = s.Tolerance
	return opts
}

// Job states. A job moves queued → running → done/failed/canceled;
// cache hits are born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one accepted submission: its normalized payload, its place in
// the queue, its per-job telemetry hub (the /jobs/{id}/progress
// product endpoint) and eventually its report.
type Job struct {
	ID  string
	Sub Submission
	Key string
	// evKey is Sub.evidenceKey(): the evidence cache slot the job reads
	// or fills.
	evKey string

	// tel is the per-job observability hub; its snapshot is the
	// /jobs/{id}/progress payload. Immutable after creation.
	tel *telemetry.Campaign
	// journal buffers the job's JSONL run journal (lifecycle events
	// plus tracer spans) in memory for /jobs/{id}/journal.
	journal *journalBuf

	cancel chan struct{} // closed by DELETE /jobs/{id}

	mu          sync.Mutex
	state       string
	cacheHit    bool
	report      string
	errMsg      string
	targetMet   bool
	conditional bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	cancelOnce  sync.Once
}

// Cancel requests cooperative cancellation. Safe to call repeatedly
// and in any state; a finished job is unaffected.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

func (j *Job) canceled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// Status is the JSON shape of GET /jobs/{id} (and the per-job rows of
// GET /jobs).
type Status struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Design      string  `json:"design"`
	Key         string  `json:"key"`
	CacheHit    bool    `json:"cache_hit"`
	TargetMet   bool    `json:"target_met"`
	Conditional bool    `json:"conditional"`
	Error       string  `json:"error,omitempty"`
	QueueSec    float64 `json:"queue_sec"`
	RunSec      float64 `json:"run_sec"`
}

// Status renders the job's current state. now may be zero (no clock):
// the latency fields then stay at their last pinned values.
func (j *Job) Status(now time.Time) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Design: j.Sub.Design, Key: j.Key,
		CacheHit: j.cacheHit, TargetMet: j.targetMet, Conditional: j.conditional,
		Error: j.errMsg,
	}
	queueEnd, runEnd := j.started, j.finished
	if queueEnd.IsZero() {
		queueEnd = now
	}
	if runEnd.IsZero() {
		runEnd = now
	}
	if !j.submitted.IsZero() && queueEnd.After(j.submitted) {
		st.QueueSec = queueEnd.Sub(j.submitted).Seconds()
	}
	if !j.started.IsZero() && runEnd.After(j.started) {
		st.RunSec = runEnd.Sub(j.started).Seconds()
	}
	return st
}

// journalBuf is a mutex-guarded in-memory sink for a job's JSONL
// journal: the telemetry.Journal writes through it, and the
// /jobs/{id}/journal endpoint reads a consistent copy.
type journalBuf struct {
	mu sync.Mutex
	b  []byte
}

func (w *journalBuf) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.b = append(w.b, p...)
	w.mu.Unlock()
	return len(p), nil
}

// Bytes returns a copy of the journal so far.
func (w *journalBuf) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.b...)
}
