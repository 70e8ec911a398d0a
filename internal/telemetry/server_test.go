package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// TestDefaultLoopback: empty and wildcard-host addresses rewrite to
// loopback; concrete hosts and unparseable strings pass through.
func TestDefaultLoopback(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "127.0.0.1:0"},
		{":0", "127.0.0.1:0"},
		{":8080", "127.0.0.1:8080"},
		{"0.0.0.0:9090", "127.0.0.1:9090"},
		{"[::]:9090", "127.0.0.1:9090"},
		{"*:7070", "127.0.0.1:7070"},
		{"127.0.0.1:8080", "127.0.0.1:8080"},
		{"192.168.1.5:80", "192.168.1.5:80"},
		{"localhost:80", "localhost:80"},
		{"[fe80::1]:80", "[fe80::1]:80"},
		{"not-an-addr", "not-an-addr"}, // net.Listen reports the error
	} {
		if got := DefaultLoopback(tc.in); got != tc.want {
			t.Errorf("DefaultLoopback(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestServeStatusSequentialLifecycles runs ServeStatus lifecycles back
// to back in one process: each server must expose its own campaign on
// /progress and /metrics.json — never an earlier one's — and closing an
// older server must leave a newer one serving.
func TestServeStatusSequentialLifecycles(t *testing.T) {
	get := func(t *testing.T, addr, path string, into any) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, body)
		}
	}
	serve := func(t *testing.T, total, done int) *StatusServer {
		t.Helper()
		c := NewCampaign(nil, nil)
		c.PlanBuilt(total, 1, 9)
		for i := 0; i < done; i++ {
			st := c.ExpStart(i)
			c.ExpFinish(i, "safe-detected", false, 1, 4, st)
		}
		s, err := ServeStatus("127.0.0.1:0", c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(t *testing.T, s *StatusServer, want int64) {
		t.Helper()
		var snap Snapshot
		get(t, s.Addr, "/progress", &snap)
		if snap.Done != want {
			t.Fatalf("/progress done = %d, want %d", snap.Done, want)
		}
		var reg RegistrySnapshot
		get(t, s.Addr, "/metrics.json", &reg)
		if got := reg.Counters["exp_done"]; got != want {
			t.Fatalf("/metrics.json exp_done = %d, want %d (another server's campaign?)", got, want)
		}
	}

	s1 := serve(t, 5, 1)
	check(t, s1, 1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := serve(t, 7, 3)
	defer s2.Close()
	check(t, s2, 3)

	// A newer server survives an older Close.
	s3 := serve(t, 4, 2)
	defer s3.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	check(t, s3, 2)
}

func TestSnapshotSanitize(t *testing.T) {
	s := Snapshot{
		ElapsedSec:  math.Inf(1),
		ExpPerSec:   math.NaN(),
		CyclePerSec: math.NaN(),
		Utilization: math.Inf(1),
		ETASec:      math.NaN(),
	}
	s.sanitize()
	if s.ElapsedSec != 0 || s.ExpPerSec != 0 ||
		s.CyclePerSec != 0 || s.Utilization != 0 || s.ETASec != -1 {
		t.Fatalf("sanitize left non-finite defaults: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("sanitized snapshot does not marshal: %v", err)
	}
}

// TestSnapshotSchema pins the /progress field set: adding or dropping a
// field is a schema change for every poller.
func TestSnapshotSchema(t *testing.T) {
	b, err := json.Marshal(Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m { //det:order sorted below
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{
		"checkpoints", "cycles_per_sec", "done", "elapsed_sec", "eta_sec",
		"exp_per_sec", "in_flight", "leases_expired", "leases_issued",
		"outcomes", "preloaded", "quarantined", "ranges_quarantined",
		"retries", "sim_cycles", "total", "utilization", "worker_retries",
		"workers", "workers_active",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/progress fields = %v, want %v", got, want)
	}
}

// TestWriteJSONEncodeFailure: an unencodable value must surface as a
// 500, never a truncated 200 body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("good value: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestCampaignHandlerPerCampaign: two handlers over two campaigns serve
// disjoint snapshots — the building block behind per-job /progress in
// internal/serve.
func TestCampaignHandlerPerCampaign(t *testing.T) {
	a, b := NewCampaign(nil, nil), NewCampaign(nil, nil)
	a.PlanBuilt(2, 1, 9)
	b.PlanBuilt(9, 1, 9)
	for i, h := range []http.Handler{CampaignHandler(a), CampaignHandler(b)} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		want := int64(2)
		if i == 1 {
			want = 9
		}
		if snap.Total != want {
			t.Fatalf("handler %d total = %d, want %d", i, snap.Total, want)
		}
	}
}
