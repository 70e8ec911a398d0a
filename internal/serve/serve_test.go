package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fmea"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/netlist"
	"repro/internal/zones"
)

// fastSub is a submission small enough for a unit test: the analytical
// half of the flow only (no injection campaign), on the reduced memory.
func fastSub() Submission {
	return Submission{Design: "v2", AddrWidth: 6, Words: 4}
}

// directRun runs the submission straight through core.Run the way a
// worker would.
func directRun(t *testing.T, sub Submission) (core.DUT, *core.Assessment) {
	t.Helper()
	sub.normalize()
	dut, err := sub.dut()
	if err != nil {
		t.Fatal(err)
	}
	as, err := core.Run(dut, sub.options())
	if err != nil {
		t.Fatal(err)
	}
	return dut, as
}

// directReport is the byte-identity oracle for served reports.
func directReport(t *testing.T, sub Submission) string {
	t.Helper()
	_, as := directRun(t, sub)
	return as.Report()
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("submit response not a Status: %v\n%s", err, raw)
		}
	}
	return resp, st
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitDone polls the job status until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, body := get(t, ts, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status not JSON: %v\n%s", err, body)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

// TestServedReportByteIdentical is the acceptance core: a served report
// must be byte-identical to the same submission run directly through
// core.Run (which is exactly what cmd/certify prints), and a second
// identical submission must be answered from the cache without a second
// engine run.
func TestServedReportByteIdentical(t *testing.T) {
	want := directReport(t, fastSub())

	srv := New(Config{Workers: 1, Clock: time.Now})
	defer srv.Drain(0) //nolint:errcheck — test teardown
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, `{"design":"v2","addr_width":6,"words":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	if st.CacheHit {
		t.Fatal("first submission claims a cache hit")
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}

	code, report := get(t, ts, "/jobs/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	if string(report) != want {
		t.Fatalf("served report differs from direct core.Run report:\nserved %d bytes, direct %d bytes", len(report), len(want))
	}

	// Identical resubmission (explicit defaults spelled out — the
	// normalization must fold them onto the same content key).
	resp2, st2 := postJob(t, ts, `{"design":"v2","addr_width":6,"words":4,"transient":1,"permanent":1,"seed":1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 (cache hit born done)", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmit status = %+v, want done cache hit", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("normalized keys differ: %s vs %s", st2.Key, st.Key)
	}
	_, report2 := get(t, ts, "/jobs/"+st2.ID+"/report")
	if !bytes.Equal(report2, report) {
		t.Fatal("cached report differs from the original bytes")
	}
	snap := srv.Registry().Snapshot()
	if snap.Counters["served_cache_hits"] != 1 {
		t.Fatalf("served_cache_hits = %d, want 1", snap.Counters["served_cache_hits"])
	}
	if snap.Counters["served_cache_misses"] != 1 {
		t.Fatalf("served_cache_misses = %d, want 1", snap.Counters["served_cache_misses"])
	}

	// Per-job telemetry endpoints: progress snapshot is JSON, journal is
	// non-empty JSONL with the job root span.
	code, prog := get(t, ts, "/jobs/"+st.ID+"/progress")
	if code != http.StatusOK || !json.Valid(prog) {
		t.Fatalf("progress: status %d, valid JSON %v", code, json.Valid(prog))
	}
	code, jr := get(t, ts, "/jobs/"+st.ID+"/journal")
	if code != http.StatusOK || len(jr) == 0 {
		t.Fatalf("journal: status %d, %d bytes", code, len(jr))
	}
	if !bytes.Contains(jr, []byte(`"span"`)) || !bytes.Contains(jr, []byte(`"job"`)) {
		t.Fatalf("journal missing the job span:\n%s", jr)
	}

	// Daemon metrics render under the campaign_ Prometheus prefix.
	code, prom := get(t, ts, "/metrics")
	if code != http.StatusOK || !bytes.Contains(prom, []byte("campaign_served_cache_hits 1")) {
		t.Fatalf("daemon /metrics missing cache-hit counter (status %d):\n%s", code, prom)
	}
}

// TestServedValidationByteIdentical runs the full fault-injection flow
// through the daemon and diffs against the direct engine run — the
// slow, campaign-bearing version of the byte-identity contract.
func TestServedValidationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation flow is slow")
	}
	sub := Submission{Design: "v2", AddrWidth: 6, Words: 4, Transient: 1, Permanent: 1, Wide: 4, Validate: true}
	want := directReport(t, sub)

	srv := New(Config{Workers: 1, EngineWorkers: 4, Clock: time.Now})
	defer srv.Drain(0) //nolint:errcheck — test teardown
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, `{"design":"v2","addr_width":6,"words":4,"transient":1,"permanent":1,"wide":4,"validate":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	_, report := get(t, ts, "/jobs/"+st.ID+"/report")
	if string(report) != want {
		t.Fatal("served validation report differs from direct core.Run report")
	}
	if !strings.Contains(string(report), "Validation") {
		t.Fatal("validation section missing from served report")
	}
}

// TestSubmissionValidation rejects malformed payloads with 400 before
// anything reaches the queue.
func TestSubmissionValidation(t *testing.T) {
	srv := newServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		``,                               // empty
		`{`,                              // truncated JSON
		`{"design":"v9"}`,                // unknown design
		`{}`,                             // missing design
		`{"design":"v2","addr_width":1}`, // out of range
		`{"design":"v2","addr_width":2}`, // below memsys.Build's minimum
		`{"design":"v2","hft":7}`,        // out of range
		`{"design":"v2","tolerance":2}`,  // out of range
		`{"design":"v2","bogus":1}`,      // unknown field
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := srv.Registry().Snapshot().Counters["served_jobs_submitted"]; n != 0 {
		t.Fatalf("invalid submissions were accepted: submitted = %d", n)
	}
}

// TestQueueOverflow: with no worker draining the queue, submissions past
// QueueDepth are rejected with ErrQueueFull (the HTTP 429 path).
func TestQueueOverflow(t *testing.T) {
	srv := newServer(Config{QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := srv.Submit(Submission{Design: "v2", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Submit(Submission{Design: "v2", Seed: 2})
	if err != ErrQueueFull {
		t.Fatalf("second submit: err = %v, want ErrQueueFull", err)
	}
	resp, _ := postJob(t, ts, `{"design":"v2","seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if n := srv.Registry().Snapshot().Counters["served_jobs_rejected"]; n != 2 {
		t.Fatalf("served_jobs_rejected = %d, want 2", n)
	}
}

// TestCancelWhileQueued: DELETE on a queued job cancels it before it
// ever touches the engine.
func TestCancelWhileQueued(t *testing.T) {
	srv := newServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}

	// Drive the worker loop by hand: the canceled job must terminate
	// without an engine run.
	srv.run(<-srv.queue)
	st := job.Status(time.Time{})
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	code, _ := get(t, ts, "/jobs/"+job.ID+"/report")
	if code != http.StatusGone {
		t.Fatalf("report of canceled job: status %d, want 410", code)
	}
	if n := srv.Registry().Snapshot().Counters["served_jobs_canceled"]; n != 1 {
		t.Fatalf("served_jobs_canceled = %d, want 1", n)
	}
}

// TestDuplicateQueuedBehindTwin: two identical submissions accepted
// before either runs — the second is served from the cache its twin
// filled, never a second engine run.
func TestDuplicateQueuedBehindTwin(t *testing.T) {
	srv := newServer(Config{QueueDepth: 2})
	a, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	srv.run(<-srv.queue) // a: real engine run, fills the cache
	srv.run(<-srv.queue) // b: must come back as a cache hit

	sa, sb := a.Status(time.Time{}), b.Status(time.Time{})
	if sa.State != StateDone || sa.CacheHit {
		t.Fatalf("twin a = %+v, want done miss", sa)
	}
	if sb.State != StateDone || !sb.CacheHit {
		t.Fatalf("twin b = %+v, want done cache hit", sb)
	}
	a.mu.Lock()
	ra := a.report
	a.mu.Unlock()
	b.mu.Lock()
	rb := b.report
	b.mu.Unlock()
	if ra == "" || ra != rb {
		t.Fatal("twin reports differ")
	}
	if n := srv.Registry().Snapshot().Counters["served_cache_hits"]; n != 1 {
		t.Fatalf("served_cache_hits = %d, want 1", n)
	}
}

// TestCacheDisabledAndEviction covers the CacheCap knobs on the
// evidence cache: disabled, nothing is kept and a regrade runs the
// engine again; at cap 1, FIFO eviction drops the older spec's
// evidence, so its regrade queues while the newer spec's is graded.
func TestCacheDisabledAndEviction(t *testing.T) {
	regrade := func(sub Submission) Submission {
		sub.TargetSIL = 2
		return sub
	}
	off := newServer(Config{CacheCap: -1})
	j, err := off.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	off.run(<-off.queue)
	if j.Status(time.Time{}).State != StateDone {
		t.Fatal("run failed")
	}
	if len(off.cache) != 0 {
		t.Fatal("CacheCap<0 must disable caching")
	}
	if j, err = off.Submit(regrade(fastSub())); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(time.Time{}); st.State != StateQueued || st.CacheHit {
		t.Fatalf("regrade with caching off = %+v, want queued for the engine", st)
	}

	small := newServer(Config{CacheCap: 1, QueueDepth: 4})
	subs := []Submission{fastSub(), fastSub()}
	subs[1].Seed = 2
	for _, sub := range subs {
		if _, err := small.Submit(sub); err != nil {
			t.Fatal(err)
		}
		small.run(<-small.queue)
	}
	if len(small.cache) != 1 || len(small.cacheFIFO) != 1 {
		t.Fatalf("cache size = %d fifo = %d, want 1 (FIFO eviction)", len(small.cache), len(small.cacheFIFO))
	}
	kept := subs[1]
	kept.normalize()
	if _, ok := small.cache[kept.evidenceKey()]; !ok {
		t.Fatal("FIFO eviction kept the older spec's evidence")
	}
	newer, err := small.Submit(regrade(subs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if st := newer.Status(time.Time{}); st.State != StateDone || !st.CacheHit {
		t.Fatalf("regrade of the cached spec = %+v, want a done cache hit", st)
	}
	older, err := small.Submit(regrade(subs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if st := older.Status(time.Time{}); st.State != StateQueued || st.CacheHit {
		t.Fatalf("regrade of the evicted spec = %+v, want queued for the engine", st)
	}
}

// TestRegradeServedFromEvidence: one fresh job's evidence answers every
// grading — TargetSIL 1–4 × HFT 0–2 × three tolerances, submitted
// concurrently — with the bytes and status bits of a direct core.Run at
// that grading, and no second engine run.
func TestRegradeServedFromEvidence(t *testing.T) {
	fresh := Submission{Design: "cpu-lockstep", Transient: 1, Permanent: 1, Wide: 2, Validate: true}
	srv := newServer(Config{})
	if _, err := srv.Submit(fresh); err != nil {
		t.Fatal(err)
	}
	srv.run(<-srv.queue)
	var subs []Submission
	for sil := 1; sil <= 4; sil++ {
		for hft := 0; hft <= 2; hft++ {
			for _, tol := range []float64{0.05, 0.35, 1} {
				sub := fresh
				sub.TargetSIL, sub.HFT, sub.Tolerance = sil, hft, tol
				subs = append(subs, sub)
			}
		}
	}
	jobs := make([]*Job, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := srv.Submit(sub)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = job
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	met, missed := 0, 0
	for i, sub := range subs {
		st := jobs[i].Status(time.Time{})
		if st.State != StateDone || !st.CacheHit {
			t.Fatalf("regrade %+v: status %+v, want a done cache hit", sub, st)
		}
		_, want := directRun(t, sub)
		jobs[i].mu.Lock()
		report := jobs[i].report
		jobs[i].mu.Unlock()
		if report != want.Report() {
			t.Fatalf("regrade SIL%d HFT%d tol %g: report differs from core.Run's", sub.TargetSIL, sub.HFT, sub.Tolerance)
		}
		if st.TargetMet != want.TargetMet || st.Conditional != (!want.DRCClean() || !want.CampaignHealthy()) {
			t.Fatalf("regrade SIL%d HFT%d tol %g: status %+v, core.Run target met %v",
				sub.TargetSIL, sub.HFT, sub.Tolerance, st, want.TargetMet)
		}
		if st.TargetMet {
			met++
		} else {
			missed++
		}
	}
	if met == 0 || missed == 0 {
		t.Errorf("target met %d, missed %d times: the matrix reaches one verdict only", met, missed)
	}
	snap := srv.Registry().Snapshot()
	if snap.Counters["served_cache_misses"] != 1 || snap.Counters["served_cache_hits"] != int64(len(subs)) {
		t.Fatalf("misses %d hits %d, want 1 engine run and %d graded hits",
			snap.Counters["served_cache_misses"], snap.Counters["served_cache_hits"], len(subs))
	}
}

// TestRegradeQueuedBehindOriginal: a regrade accepted before its
// original ran is graded at dequeue from the evidence the original
// left, so the engine runs once.
func TestRegradeQueuedBehindOriginal(t *testing.T) {
	srv := newServer(Config{QueueDepth: 2})
	orig := fastSub()
	regrade := fastSub()
	regrade.TargetSIL = 2
	if _, err := srv.Submit(orig); err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(regrade)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(time.Time{}); st.State != StateQueued {
		t.Fatalf("regrade before the original ran = %s, want queued", st.State)
	}
	srv.run(<-srv.queue) // the original: the one engine run
	srv.run(<-srv.queue) // the regrade: graded at dequeue
	st := job.Status(time.Time{})
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("regrade = %+v, want a done cache hit", st)
	}
	job.mu.Lock()
	report := job.report
	job.mu.Unlock()
	if report != directReport(t, regrade) {
		t.Fatal("regrade graded at dequeue differs from core.Run's report")
	}
	snap := srv.Registry().Snapshot()
	if snap.Counters["served_cache_misses"] != 1 || snap.Counters["served_cache_hits"] != 1 {
		t.Fatalf("misses %d hits %d, want 1 and 1", snap.Counters["served_cache_misses"], snap.Counters["served_cache_hits"])
	}
}

// TestCacheHoldsNoWorkingSet walks the cache entry's type: it must
// reach none of the campaign's working set, which is what keeps a
// cached entry kilobytes instead of the analysis behind it.
func TestCacheHoldsNoWorkingSet(t *testing.T) {
	heavy := map[reflect.Type]bool{
		reflect.TypeOf((*zones.Analysis)(nil)):  true,
		reflect.TypeOf((*netlist.Netlist)(nil)): true,
		reflect.TypeOf((*fmea.Worksheet)(nil)):  true,
		reflect.TypeOf((*inject.Report)(nil)):   true,
	}
	reaches := func(root reflect.Type) []reflect.Type {
		var found []reflect.Type
		seen := map[reflect.Type]bool{}
		var walk func(reflect.Type)
		walk = func(ty reflect.Type) {
			if seen[ty] {
				return
			}
			seen[ty] = true
			if heavy[ty] {
				found = append(found, ty)
			}
			switch ty.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
				walk(ty.Elem())
			case reflect.Map:
				walk(ty.Key())
				walk(ty.Elem())
			case reflect.Struct:
				for i := 0; i < ty.NumField(); i++ {
					walk(ty.Field(i).Type)
				}
			}
		}
		walk(root)
		return found
	}
	// The walk sees the working set where it is.
	if got := reaches(reflect.TypeOf(core.Assessment{})); len(got) != len(heavy) {
		t.Fatalf("walk of core.Assessment reaches %v, want all of %d heavy types", got, len(heavy))
	}
	entry := reflect.TypeOf(newServer(Config{}).cache).Elem()
	if got := reaches(entry); len(got) != 0 {
		t.Fatalf("cache entry %v reaches %v", entry, got)
	}
}

// TestCacheHitBookkeeping: both cache-hit paths — born done at Submit
// and the dequeue-time twin — settle the same terminal bookkeeping as
// an engine-run finish (completion counter, queue-wait observation,
// closed journal) and stay race-free against a concurrent status
// poller (the dequeue-time hit mutates a job that has been visible
// since Submit).
func TestCacheHitBookkeeping(t *testing.T) {
	now := time.Unix(2000, 0)
	srv := newServer(Config{QueueDepth: 2, Clock: func() time.Time { return now }})
	if _, err := srv.Submit(fastSub()); err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hammer the visible twin while the worker finishes it
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Status(time.Time{})
			}
		}
	}()
	srv.run(<-srv.queue) // a: engine run, fills the cache
	srv.run(<-srv.queue) // b: dequeue-time cache hit
	close(stop)
	wg.Wait()

	c, err := srv.Submit(fastSub()) // born done at Submit
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(time.Time{}); st.State != StateDone || !st.CacheHit {
		t.Fatalf("submit-time hit = %+v, want done cache hit", st)
	}
	snap := srv.Registry().Snapshot()
	if n := snap.Counters["served_jobs_completed"]; n != 3 {
		t.Fatalf("served_jobs_completed = %d, want 3 (cache hits settle completion)", n)
	}
	if n := srv.queueMsH.Count(); n != 3 {
		t.Fatalf("queue-wait observations = %d, want 3 (cache hits observe queue wait)", n)
	}
}

// TestJobTableEviction: past JobsCap the oldest terminal jobs are
// evicted from the table, queued jobs are never evicted, and a
// negative cap disables eviction.
func TestJobTableEviction(t *testing.T) {
	srv := newServer(Config{JobsCap: 2, QueueDepth: 8})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		sub := fastSub()
		sub.Seed = seed
		j, err := srv.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		srv.run(<-srv.queue)
	}
	if _, ok := srv.Job(ids[0]); ok {
		t.Fatalf("job %s still tracked past JobsCap", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := srv.Job(id); !ok {
			t.Fatalf("job %s evicted, want retained", id)
		}
	}
	if got := len(srv.Jobs()); got != 2 {
		t.Fatalf("tracked jobs = %d, want JobsCap = 2", got)
	}
	if n := srv.jobsLive.Load(); n != 2 {
		t.Fatalf("served_jobs_tracked = %d, want 2 after eviction", n)
	}

	// Queued jobs are never evicted: with no worker draining the queue
	// the table exceeds the cap by the in-flight count.
	pinned := newServer(Config{JobsCap: 1, QueueDepth: 8})
	for seed := uint64(1); seed <= 3; seed++ {
		sub := fastSub()
		sub.Seed = seed
		if _, err := pinned.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(pinned.Jobs()); got != 3 {
		t.Fatalf("queued jobs evicted: %d tracked, want 3", got)
	}

	// Negative cap disables eviction entirely.
	keep := newServer(Config{JobsCap: -1, QueueDepth: 8})
	for seed := uint64(1); seed <= 3; seed++ {
		sub := fastSub()
		sub.Seed = seed
		if _, err := keep.Submit(sub); err != nil {
			t.Fatal(err)
		}
		keep.run(<-keep.queue)
	}
	if got := len(keep.Jobs()); got != 3 {
		t.Fatalf("JobsCap<0 evicted: %d tracked, want 3", got)
	}
}

// TestDrain: draining rejects new submissions with 503 and Drain waits
// for the pool to go idle; a second Drain is a no-op.
func TestDrain(t *testing.T) {
	srv := New(Config{Workers: 1, Clock: time.Now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(time.Minute); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := job.Status(time.Time{}); st.State != StateDone {
		t.Fatalf("queued job after drain = %s, want done (graceful drain finishes work)", st.State)
	}
	if _, err := srv.Submit(fastSub()); err != ErrDraining {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	resp, _ := postJob(t, ts, `{"design":"v2"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("healthz during drain (status %d): %s", code, body)
	}
	if err := srv.Drain(time.Minute); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestHTTPSurface covers the remaining endpoint contracts: unknown job
// 404, report-before-done 409 with Retry-After, job list.
func TestHTTPSurface(t *testing.T) {
	srv := newServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := get(t, ts, "/jobs/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	job, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain only
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("report of queued job: status %d Retry-After %q, want 409 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	code, body := get(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil || len(list) != 1 || list[0].ID != job.ID {
		t.Fatalf("list = %s (err %v)", body, err)
	}
}

// TestSubmissionKeyNormalization: omitted fields and their explicit
// defaults are the same content address; any knob change is a new one.
func TestSubmissionKeyNormalization(t *testing.T) {
	base := Submission{Design: "v2"}
	base.normalize()
	explicit := Submission{Design: "v2", AddrWidth: 8, Words: 8, Transient: 1,
		Permanent: 1, Wide: base.Wide, Seed: 1, TargetSIL: base.TargetSIL,
		Tolerance: base.Tolerance}
	explicit.normalize()
	if base.Key() != explicit.Key() {
		t.Fatalf("explicit defaults re-keyed: %s vs %s", explicit.Key(), base.Key())
	}
	seen := map[string]string{base.Key(): "base"}
	for name, mutate := range map[string]func(*Submission){
		"design":    func(s *Submission) { s.Design = "v1" },
		"addr":      func(s *Submission) { s.AddrWidth = 6 },
		"words":     func(s *Submission) { s.Words = 4 },
		"transient": func(s *Submission) { s.Transient = 2 },
		"permanent": func(s *Submission) { s.Permanent = 2 },
		"wide":      func(s *Submission) { s.Wide = 4 },
		"seed":      func(s *Submission) { s.Seed = 2 },
		"sil":       func(s *Submission) { s.TargetSIL = 2 },
		"hft":       func(s *Submission) { s.HFT = 1 },
		"tolerance": func(s *Submission) { s.Tolerance = 0.5 },
		"validate":  func(s *Submission) { s.Validate = true },
	} {
		sub := base
		mutate(&sub)
		k := sub.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("knob %s collides with %s on key %s", name, prev, k)
		}
		seen[k] = name
		// The evidence key moves with everything the campaign measures
		// and with nothing that only grades it.
		grading := name == "sil" || name == "hft" || name == "tolerance"
		if same := sub.evidenceKey() == base.evidenceKey(); same != grading {
			t.Errorf("knob %s: evidence key unchanged = %v, want %v", name, same, grading)
		}
	}
}

// scalarReport is the reference of the engine-knob test: the
// submission's report from core.Run, after both of its campaign reports
// were re-derived row by row on the scalar reference and found equal.
func scalarReport(t *testing.T, sub Submission) string {
	t.Helper()
	dut, as := directRun(t, sub)
	target := dut.Target(as.Analysis)
	for _, rep := range []*inject.Report{as.Validation.Report, as.Validation.WideReport} {
		var plan []inject.Injection
		for i := range rep.Results {
			plan = append(plan, rep.Results[i].Injection)
		}
		if !reflect.DeepEqual(injecttest.Reference(t, target, dut.ValidationTrace(), plan), rep) {
			t.Fatal("core.Run campaign report differs from the scalar reference")
		}
	}
	return as.Report()
}

// TestEngineKnobsByteNeutral: the daemon's engine throughput knobs
// (workers, lanes, collapse) must never change report bytes.
func TestEngineKnobsByteNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three validation campaigns")
	}
	sub := Submission{Design: "v2", AddrWidth: 6, Words: 4, Transient: 1, Permanent: 1, Wide: 4, Validate: true}
	ref := scalarReport(t, sub)
	for _, cfg := range []Config{
		{EngineWorkers: 1},
		{EngineWorkers: 4, EngineLanes: 4},
		{EngineWorkers: 2, EngineCollapse: true},
	} {
		srv := newServer(cfg)
		job, err := srv.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv.run(<-srv.queue)
		st := job.Status(time.Time{})
		if st.State != StateDone {
			t.Fatalf("cfg %+v: state %s (%s)", cfg, st.State, st.Error)
		}
		job.mu.Lock()
		report := job.report
		job.mu.Unlock()
		if report != ref {
			t.Fatalf("cfg %+v changed report bytes", cfg)
		}
	}
}

// TestStatusTiming exercises the Status latency fields with an
// injected deterministic clock.
func TestStatusTiming(t *testing.T) {
	now := time.Unix(1000, 0)
	srv := newServer(Config{Clock: func() time.Time { return now }})
	job, err := srv.Submit(fastSub())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(3 * time.Second)
	if st := job.Status(now); st.QueueSec != 3 {
		t.Fatalf("queued QueueSec = %v, want 3", st.QueueSec)
	}
	srv.run(<-srv.queue)
	st := job.Status(now.Add(time.Hour)) // terminal: pinned, not live
	if st.QueueSec != 3 || st.RunSec != 0 {
		t.Fatalf("terminal status = %+v, want pinned queue 3s run 0s", st)
	}
	if srv.queueMsH.Count() != 1 {
		t.Fatal("queue-wait histogram not observed")
	}
	if fmt.Sprintf("%s", st.State) != StateDone {
		t.Fatalf("state = %s", st.State)
	}
}
