package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeConcurrent hammers one counter and gauge from many
// goroutines and checks the totals.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Load())
	}
	if r.Counter("c") != c {
		t.Fatal("get-or-create returned a different counter")
	}
}

// TestHistogramBuckets pins bucket edges: bounds are inclusive upper
// edges with one overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 4, 16)
	for _, v := range []int64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	got := h.Buckets()
	want := []Bucket{{Le: 1, N: 2}, {Le: 4, N: 2}, {Le: 16, N: 2}, {Le: -1, N: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	if h.Count() != 8 || h.Sum() != 1045 {
		t.Fatalf("count/sum = %d/%d, want 8/1045", h.Count(), h.Sum())
	}
}

// TestRegistrySnapshotStable asserts two snapshots of the same state
// render to identical JSON — the byte-stability the expvar and
// /metrics endpoints rely on.
func TestRegistrySnapshotStable(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Add(3)
		r.Gauge("g_" + name).Set(7)
	}
	r.Histogram("h", 1, 2).Observe(5)
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

// TestCampaignNilSafe calls every hook on a nil campaign; the layer
// must be inert, not crashing.
func TestCampaignNilSafe(t *testing.T) {
	var c *Campaign
	c.PlanBuilt(10, 2, 42)
	c.Phase("x")
	start := c.ExpStart(0)
	c.ExpFinish(0, "silent", false, 0, -1, start)
	c.Retry(1, 2, "boom")
	c.Quarantine(1, 3, "boom")
	c.CheckpointWrite(5)
	c.CheckpointLoad(3, 1)
	c.AddSimCycles(100)
	c.Summary()
	if snap := c.Snapshot(); snap.Done != 0 || snap.ETASec != -1 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	var j *Journal
	j.Emit("x", nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var rep *Reporter
	rep.Stop()
}

// TestCampaignCountersAndSnapshot drives a small synthetic campaign
// through the hooks and checks the derived snapshot.
func TestCampaignCountersAndSnapshot(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCampaign(nil, clock)
	c.PlanBuilt(4, 2, 0xabcd)
	for i := 0; i < 3; i++ {
		st := c.ExpStart(i)
		now = now.Add(500 * time.Millisecond)
		c.ExpFinish(i, "silent", true, 2, 7, st)
	}
	c.Retry(3, 1, "x")
	st := c.ExpStart(3)
	c.Quarantine(3, 2, "x")
	_ = st
	c.CheckpointWrite(4)

	s := c.Snapshot()
	if s.Done != 4 || s.Total != 4 || s.Retries != 1 || s.Quarantined != 1 || s.Checkpoints != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0", s.InFlight)
	}
	if s.Outcomes["silent"] != 3 {
		t.Fatalf("outcomes = %v", s.Outcomes)
	}
	if s.ExpPerSec <= 0 || s.ElapsedSec <= 0 {
		t.Fatalf("rates not computed: %+v", s)
	}
	if s.ETASec != -1 {
		t.Fatalf("ETA = %v for a finished campaign, want -1", s.ETASec)
	}
	if !strings.Contains(s.Line(), "4/4 exp (100.0%)") {
		t.Fatalf("line = %q", s.Line())
	}
	if got := c.Registry.Counter("exp_outcome_silent").Load(); got != 3 {
		t.Fatalf("exp_outcome_silent = %d, want 3", got)
	}
}

// TestReporter runs the periodic reporter against an injected clock
// campaign and checks that progress lines land on the writer.
func TestReporter(t *testing.T) {
	c := NewCampaign(nil, nil)
	c.PlanBuilt(2, 1, 1)
	st := c.ExpStart(0)
	c.ExpFinish(0, "silent", false, 0, -1, st)
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	r := StartReporter(w, c, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: 1/2 exp (50.0%)") {
		t.Fatalf("reporter output missing progress line:\n%s", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestStatusServer boots the server on an ephemeral loopback port and
// exercises /progress, /metrics, /metrics.json and the pprof index.
func TestStatusServer(t *testing.T) {
	c := NewCampaign(nil, nil)
	c.PlanBuilt(3, 1, 9)
	st := c.ExpStart(0)
	c.ExpFinish(0, "dangerous-undetected", true, 3, 12, st)

	s, err := ServeStatus("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(s.Addr, "127.0.0.1:") {
		t.Fatalf("bound %q, want loopback", s.Addr)
	}

	get := func(path string) []byte {
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/progress"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Done != 1 || snap.Total != 3 {
		t.Fatalf("/progress = %+v", snap)
	}
	var reg RegistrySnapshot
	if err := json.Unmarshal(get("/metrics.json"), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Counters["exp_done"] != 1 {
		t.Fatalf("/metrics.json counters = %v", reg.Counters)
	}
	prom := string(get("/metrics"))
	for _, want := range []string{
		"# TYPE campaign_exp_done counter\ncampaign_exp_done 1\n",
		"# TYPE campaign_exp_wall_us histogram\n",
		`campaign_deviated_points_bucket{le="+Inf"} 1`,
		"campaign_deviated_points_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}
	// One registry, two renderings: /metrics does not negotiate and
	// there is no expvar publication.
	req, err := http.NewRequest("GET", "http://"+s.Addr+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	negotiated, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(negotiated) != prom {
		t.Fatalf("/metrics with Accept: application/json is not the Prometheus text:\n%s", negotiated)
	}
	resp, err = http.Get("http://" + s.Addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars: status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(get("/debug/pprof/")), "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

// TestServeStatusLoopbackDefault: a bare ":port" must bind loopback,
// never the wildcard interface.
func TestServeStatusLoopbackDefault(t *testing.T) {
	s, err := ServeStatus(":0", NewCampaign(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(s.Addr, "127.0.0.1:") {
		t.Fatalf("addr %q: bare :port must bind 127.0.0.1", s.Addr)
	}
}

func ExampleSnapshot_Line() {
	s := Snapshot{Done: 5, Total: 10, Workers: 2, InFlight: 2, ETASec: -1}
	fmt.Println(s.Line())
	// Output: progress: 5/10 exp (50.0%) | workers 2/2 busy | retries 0 quarantined 0 ckpts 0
}

// TestCampaignCollapseCounters checks the static pre-pass hooks: a
// collapsed plan advances experiment progress by its pruned rows and
// each inherited outcome.
func TestCampaignCollapseCounters(t *testing.T) {
	c := NewCampaign(nil, nil)
	c.PlanBuilt(10, 1, 0)
	c.CollapsePlan(3, 2)
	c.OutcomeInherited()
	c.OutcomeInherited()
	if got := c.Snapshot().Done; got != 5 {
		t.Errorf("done after 3 pruned + 2 inherited = %d, want 5", got)
	}
	counters := c.Registry.Snapshot().Counters
	for name, want := range map[string]int64{"faults_static_pruned": 3, "faults_collapsed": 2, "outcomes_inherited": 2} {
		if counters[name] != want {
			t.Errorf("%s = %d, want %d", name, counters[name], want)
		}
	}
	var nilc *Campaign
	nilc.CollapsePlan(1, 1)
	nilc.OutcomeInherited()
}

// TestCampaignDistCounters checks the distributed-scheduling hooks that
// back the lease, retry, quarantine, worker and range metrics.
func TestCampaignDistCounters(t *testing.T) {
	c := NewCampaign(nil, nil)
	c.LeaseIssued()
	c.LeaseIssued()
	c.LeaseExpired()
	c.WorkerRetry()
	c.RangeQuarantined()
	c.WorkerJoined()
	c.WorkerJoined()
	c.WorkerLeft()
	c.RangeDone(16, 250*time.Millisecond)
	c.RangeDone(4, 1500*time.Millisecond)
	snap := c.Registry.Snapshot()
	for name, want := range map[string]int64{"leases_issued": 2, "leases_expired": 1, "worker_retries": 1, "ranges_quarantined": 1} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if got := snap.Gauges["workers_active"]; got != 1 {
		t.Errorf("workers_active = %d, want 1", got)
	}
	if h := snap.Histograms["range_rows"]; h.Count != 2 || h.Sum != 20 {
		t.Errorf("range_rows = %+v, want count 2 sum 20", h)
	}
	if h := snap.Histograms["range_duration_ms"]; h.Count != 2 || h.Sum != 1750 {
		t.Errorf("range_duration_ms = %+v, want count 2 sum 1750", h)
	}
	var nilc *Campaign
	nilc.LeaseIssued()
	nilc.LeaseExpired()
	nilc.WorkerRetry()
	nilc.RangeQuarantined()
	nilc.WorkerJoined()
	nilc.WorkerLeft()
	nilc.RangeDone(1, time.Second)
}
