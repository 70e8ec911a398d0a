// Package serve is the campaign-as-a-service layer: a multi-tenant
// assessment daemon wrapping the paper's whole flow (netlist → zones →
// DRC → worksheet → injection → certify) behind an HTTP/JSON API.
//
// Shape: submissions enter a bounded FIFO queue (reject-with-429 on
// overflow) feeding a fixed worker pool; each accepted job runs the
// supervised core.Assess engine with its own telemetry hub, so the
// /progress snapshot that used to be a process-global observer becomes
// a per-job product endpoint (GET /jobs/{id}/progress), next to the
// job's report and JSONL journal. What a campaign measured lands in a
// content-addressed cache of core.Evidence keyed by (engine version,
// design spec and plan, validate) — not by the grading knobs. Every
// later submission of that spec — a repeat, or a regrade at another
// target SIL, HFT or tolerance — is answered by one lookup and a
// core.Grade plus render, never a second campaign.
//
// Everything a served report contains is byte-identical to the same
// design/plan run through cmd/certify: the daemon adds scheduling,
// caching and observability around the engine, never bytes inside it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/telemetry"
)

// Config tunes the daemon.
type Config struct {
	// QueueDepth bounds the FIFO submission queue; a submission beyond
	// it is rejected with 429 (0 selects 64). The bound is the
	// backpressure contract: at fleet scale a shed request that retries
	// beats an unbounded queue that grows until the process dies.
	QueueDepth int
	// Workers is the job worker pool size — how many assessments run
	// concurrently (0 selects 1). Per-job engine parallelism is
	// EngineWorkers; the two multiply.
	Workers int
	// EngineWorkers/EngineLanes/EngineCollapse are the core engine
	// throughput knobs applied to every job (byte-neutral; see
	// core.Options).
	EngineWorkers  int
	EngineLanes    int
	EngineCollapse bool
	// CacheCap bounds the content-addressed evidence cache (entries;
	// 0 selects 256, negative disables caching). A hit costs one lookup
	// and a grade. Eviction is FIFO by insertion: the cache is an
	// idempotency layer, not an LRU tuned for hit rate.
	CacheCap int
	// JobsCap bounds the in-memory job table (0 selects 1024, negative
	// disables eviction). Past the cap the oldest terminal jobs
	// (done/failed/canceled) are evicted FIFO — their status, report,
	// progress snapshot and journal become 404s, so clients must fetch
	// results within the retention window. Without a bound a
	// long-running daemon retains every submission's campaign hub and
	// journal forever: an eventual OOM even under benign load. Queued
	// and running jobs are never evicted, so the table may transiently
	// exceed the cap by the in-flight count (≤ QueueDepth + Workers).
	JobsCap int
	// Clock drives job timestamps, per-job rate/ETA telemetry and the
	// journal. nil disables wall-clock telemetry (deterministic tests).
	Clock func() time.Time
}

// verdict is a graded job's outcome: its report and the status bits
// its grade sets.
type verdict struct {
	report      string
	targetMet   bool
	conditional bool
}

// grade grades evidence for a submission and renders the report. Both
// a fresh run and a cache hit finish through it, so the two serve the
// same bytes.
func grade(sub Submission, ev *core.Evidence) verdict {
	as := core.Grade(&core.Assessment{Evidence: ev}, sub.options())
	return verdict{
		report:      as.Report(),
		targetMet:   as.TargetMet,
		conditional: !as.DRCClean() || !as.CampaignHealthy(),
	}
}

// Server is the multi-tenant assessment daemon: queue, worker pool,
// job table, evidence cache and metrics registry. Create with New,
// mount Handler on an HTTP server, stop with Drain.
type Server struct {
	cfg Config

	// reg is the daemon-level metrics registry (queue depth, cache
	// hits/misses, stage latencies) — deliberately separate from the
	// per-job campaign hubs, like a coordinator's registry is separate
	// from its workers'.
	reg       *telemetry.Registry
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	cacheHits *telemetry.Counter
	cacheMiss *telemetry.Counter
	queueLen  *telemetry.Gauge
	running   *telemetry.Gauge
	jobsLive  *telemetry.Gauge
	queueMsH  *telemetry.Histogram
	runMsH    *telemetry.Histogram

	queue chan *Job
	wg    sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string
	cache     map[string]*core.Evidence // by Submission.evidenceKey
	cacheFIFO []string
	nextID    int
	draining  bool
}

// New builds the daemon and starts its worker pool.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

// newServer builds the daemon without starting workers — the seam that
// lets tests drive the queue and run jobs synchronously.
func newServer(cfg Config) *Server {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 256
	}
	if cfg.JobsCap == 0 {
		cfg.JobsCap = 1024
	}
	r := telemetry.NewRegistry()
	s := &Server{
		cfg:       cfg,
		reg:       r,
		submitted: r.Counter("served_jobs_submitted"),
		rejected:  r.Counter("served_jobs_rejected"),
		completed: r.Counter("served_jobs_completed"),
		failed:    r.Counter("served_jobs_failed"),
		canceled:  r.Counter("served_jobs_canceled"),
		cacheHits: r.Counter("served_cache_hits"),
		cacheMiss: r.Counter("served_cache_misses"),
		queueLen:  r.Gauge("served_queue_depth"),
		running:   r.Gauge("served_jobs_running"),
		jobsLive:  r.Gauge("served_jobs_tracked"),
		queueMsH:  r.Histogram("served_queue_wait_ms", 1, 10, 100, 1000, 10_000, 60_000),
		runMsH:    r.Histogram("served_run_ms", 10, 100, 1000, 10_000, 60_000, 600_000),
		queue:     make(chan *Job, cfg.QueueDepth),
		jobs:      map[string]*Job{},
		cache:     map[string]*core.Evidence{},
	}
	return s
}

// start spawns the worker pool.
func (s *Server) start() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.queueLen.Add(-1)
				s.run(job)
			}
		}()
	}
}

// now samples the configured clock (zero time without one).
func (s *Server) now() time.Time {
	if s.cfg.Clock == nil {
		return time.Time{}
	}
	return s.cfg.Clock()
}

// ErrQueueFull rejects a submission when the bounded queue is at
// capacity; the HTTP layer maps it to 429.
var ErrQueueFull = fmt.Errorf("serve: job queue full")

// ErrDraining rejects a submission during graceful shutdown; the HTTP
// layer maps it to 503.
var ErrDraining = fmt.Errorf("serve: server draining")

// Submit validates, normalizes and enqueues one submission. A cache
// hit — the spec's evidence is cached, whatever the grading knobs —
// returns a job that is born done with its graded report: no queue
// slot, no engine time.
func (s *Server) Submit(sub Submission) (*Job, error) {
	sub.normalize()
	if err := sub.validate(); err != nil {
		return nil, err
	}
	evKey := sub.evidenceKey()
	// A hit is graded before the job exists and outside s.mu: it takes
	// a fraction of a millisecond, but no other tenant waits on it.
	s.mu.Lock()
	ev := s.cache[evKey]
	s.mu.Unlock()
	var hit verdict
	if ev != nil {
		hit = grade(sub, ev)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	job := &Job{
		ID:        fmt.Sprintf("j%d", s.nextID),
		Sub:       sub,
		Key:       sub.Key(),
		evKey:     evKey,
		cancel:    make(chan struct{}),
		state:     StateQueued,
		submitted: s.now(),
		journal:   &journalBuf{},
	}
	job.tel = s.newJobTelemetry(job)
	if ev != nil {
		s.finishFromCache(job, hit)
		s.track(job)
		s.mu.Unlock()
		s.submitted.Inc()
		s.cacheHits.Inc()
		return job, nil
	}
	// Reserve the queue slot while still holding the table lock so the
	// accounting (tracked job ↔ queued job) can't diverge. The depth
	// gauge is bumped before the send: a worker's dequeue-side Add(-1)
	// can only run after the send lands, so the published depth never
	// transiently goes negative.
	s.queueLen.Add(1)
	select {
	case s.queue <- job:
	default:
		s.queueLen.Add(-1)
		s.mu.Unlock()
		s.rejected.Inc()
		return nil, ErrQueueFull
	}
	s.track(job)
	s.mu.Unlock()
	s.submitted.Inc()
	return job, nil
}

// track records the job in the table and evicts past JobsCap (caller
// holds s.mu). Eviction happens here because the table only grows on
// track: a job finishing later never pushes it over the cap.
func (s *Server) track(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictJobs()
	s.jobsLive.Set(int64(len(s.jobs)))
}

// evictJobs drops the oldest terminal jobs while the table exceeds
// JobsCap (caller holds s.mu). Queued and running jobs are skipped —
// evicting them would orphan a queue entry or a live engine run — so
// under a burst of in-flight work the table may briefly exceed the cap
// by at most QueueDepth + Workers.
func (s *Server) evictJobs() {
	if s.cfg.JobsCap <= 0 {
		return
	}
	for i := 0; len(s.jobs) > s.cfg.JobsCap && i < len(s.order); {
		j := s.jobs[s.order[i]]
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
		j.mu.Unlock()
		if !terminal {
			i++
			continue
		}
		delete(s.jobs, j.ID)
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

// finishFromCache marks a job done with a verdict graded from cached
// evidence and settles the same terminal bookkeeping as an engine-run
// finish: journal closed (so /jobs/{id}/journal serves the flushed
// JSONL), queue-wait observed and the completion counter bumped.
// job.mu is required because on the dequeue-time hit path the job has
// been visible to pollers since Submit, so a concurrent
// Job.Status/handleReport may be reading these fields.
func (s *Server) finishFromCache(job *Job, v verdict) {
	now := s.now()
	job.mu.Lock()
	job.state = StateDone
	job.cacheHit = true
	job.report = v.report
	job.targetMet = v.targetMet
	job.conditional = v.conditional
	job.started = now
	job.finished = now
	sub := job.submitted
	job.mu.Unlock()
	if job.tel != nil {
		job.tel.Journal.Close() //nolint:errcheck — in-memory sink cannot fail
	}
	if !now.IsZero() {
		s.queueMsH.Observe(now.Sub(sub).Milliseconds())
	}
	s.completed.Inc()
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Registry exposes the daemon metrics registry (the /metrics payload).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// newJobTelemetry builds the per-job observability hub: metrics +
// in-memory JSONL journal + tracer, so every job's /progress snapshot,
// journal and spans are isolated from every other tenant's. The trace
// id derives from the job id and content key — cmd/tracer run over a
// day of fetched job journals sees each job as its own trace.
func (s *Server) newJobTelemetry(job *Job) *telemetry.Campaign {
	j := telemetry.NewJournal(job.journal, s.cfg.Clock)
	tel := telemetry.NewCampaign(j, s.cfg.Clock)
	tel.Tracer = telemetry.NewTracer(j, "served/"+job.ID,
		telemetry.TraceID("serve-job", job.ID, job.Key))
	return tel
}

// run executes one dequeued job on the calling worker goroutine.
func (s *Server) run(job *Job) {
	// A job canceled while still queued never touches the engine.
	if job.canceled() {
		s.finish(job, StateCanceled, verdict{}, "canceled while queued")
		return
	}
	// A job that queued behind another of its spec — a twin or a
	// regrade — is graded from the evidence cached in the meantime,
	// even when both arrived before either finished.
	s.mu.Lock()
	ev := s.cache[job.evKey]
	s.mu.Unlock()
	if ev != nil {
		s.finishFromCache(job, grade(job.Sub, ev))
		s.cacheHits.Inc()
		return
	}
	s.cacheMiss.Inc()

	start := s.now()
	job.mu.Lock()
	job.state = StateRunning
	job.started = start
	job.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	if !start.IsZero() {
		job.mu.Lock()
		sub := job.submitted
		job.mu.Unlock()
		s.queueMsH.Observe(start.Sub(sub).Milliseconds())
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-job.cancel
		cancel()
	}()
	defer job.Cancel() // unblocks the forwarder; idempotent

	dut, err := job.Sub.dut()
	if err != nil {
		s.finish(job, StateFailed, verdict{}, err.Error())
		return
	}
	opts := job.Sub.options()
	opts.Telemetry = job.tel
	opts.Ctx = ctx
	opts.Workers = s.cfg.EngineWorkers
	opts.Lanes = s.cfg.EngineLanes
	opts.Collapse = s.cfg.EngineCollapse

	// The whole assessment runs under one "job" root span, so a fleet
	// trace over fetched job journals attributes queue wait and engine
	// phases per tenant submission.
	root := job.tel.Tracer.StartAttrs("job", telemetry.Span{}, func(e *telemetry.Enc) {
		e.Str("job", job.ID)
		e.Str("design", job.Sub.Design)
		e.Str("key", job.Key)
	})
	job.tel.SetTraceRoot(root)

	as, err := core.Assess(dut, opts)
	end := s.now()
	if !end.IsZero() && !start.IsZero() {
		s.runMsH.Observe(end.Sub(start).Milliseconds())
	}
	switch {
	case err == nil:
		s.storeCache(job.evKey, as.Evidence)
		v := grade(job.Sub, as.Evidence)
		root.EndOutcome("done")
		s.finish(job, StateDone, v, "")
	case job.canceled() || ctx.Err() != nil || errors.Is(err, inject.ErrCampaignInterrupted):
		root.EndOutcome("canceled")
		s.finish(job, StateCanceled, verdict{}, err.Error())
	default:
		root.EndOutcome("failed")
		s.finish(job, StateFailed, verdict{}, err.Error())
	}
}

// storeCache inserts a spec's evidence under its key, evicting the
// oldest entry past CacheCap.
func (s *Server) storeCache(key string, ev *core.Evidence) {
	if s.cfg.CacheCap < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache[key]; !ok {
		s.cache[key] = ev
		s.cacheFIFO = append(s.cacheFIFO, key)
		for len(s.cacheFIFO) > s.cfg.CacheCap {
			delete(s.cache, s.cacheFIFO[0])
			s.cacheFIFO = s.cacheFIFO[1:]
		}
	}
}

// finish pins the job's terminal state and closes its journal (which
// flushes the buffered JSONL so /jobs/{id}/journal serves the full
// stream).
func (s *Server) finish(job *Job, state string, v verdict, errMsg string) {
	job.mu.Lock()
	job.state = state
	job.report = v.report
	job.targetMet = v.targetMet
	job.conditional = v.conditional
	if state != StateDone {
		job.errMsg = errMsg
	}
	if job.started.IsZero() {
		job.started = job.submitted
	}
	job.finished = s.now()
	job.mu.Unlock()
	if job.tel != nil {
		job.tel.Journal.Close() //nolint:errcheck — in-memory sink cannot fail
	}
	switch state {
	case StateDone:
		s.completed.Inc()
	case StateCanceled:
		s.canceled.Inc()
	default:
		s.failed.Inc()
	}
}

// Drain stops accepting submissions, lets the queue empty and every
// running job finish, and returns once the pool is idle — the SIGTERM
// path of cmd/served. A zero timeout waits forever; on timeout the
// remaining jobs keep their non-terminal states and Drain reports the
// stragglers.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: drain timed out after %v with jobs still running", timeout)
	}
}
