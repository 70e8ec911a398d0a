package dist_test

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/fmea"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/telemetry"
	"repro/internal/zones"
)

// fakeClock is the injected time source for every coordinator under
// test: each sample advances one microsecond (strictly monotonic
// ordering without wall time), and tests jump it forward to trigger
// TTL and backoff transitions deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(time.Microsecond)
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// campaign bundles one built campaign plus everything the canonical
// report needs.
type campaign struct {
	target    *inject.Target
	golden    *inject.Golden
	plan      []inject.Injection
	analysis  *zones.Analysis
	worksheet *fmea.Worksheet
}

// buildCampaign constructs a reduced campaign for one of the three
// case studies through dist.Spec — the exact code path cmd/injector,
// cmd/campaignd and worker processes share — so every cell of the
// matrix also checks a Spec-built campaign against the scalar
// reference.
func buildCampaign(t testing.TB, kind string) campaign {
	t.Helper()
	sp := dist.Spec{Design: kind, AddrWidth: 6, Words: 2, Transient: 1, Permanent: 1, Wide: 4, Seed: 5}
	if kind == "lockstep" {
		sp.Design = "cpu-lockstep"
	}
	c, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return campaign{
		target: c.Target, golden: c.Golden, plan: sample(c.Plan),
		analysis: c.Analysis, worksheet: c.Worksheet,
	}
}

// sample strides the plan down so each matrix cell stays quick while
// still spanning many zones and experiment classes.
func sample(plan []inject.Injection) []inject.Injection {
	var out []inject.Injection
	for i := 0; i < len(plan); i += 3 {
		out = append(out, plan[i])
	}
	return out
}

// serialReference is the byte-identity reference every distributed
// topology must reproduce: the scalar reference campaign, one row at a
// time on the interpreted simulator.
func serialReference(t testing.TB, c campaign) *inject.Report {
	t.Helper()
	return injecttest.Reference(t, c.target, c.golden.Trace, c.plan)
}

// renderReport captures the canonical report bytes.
func renderReport(rep *inject.Report, c campaign) []byte {
	var buf bytes.Buffer
	rep.WriteText(&buf, c.analysis, c.worksheet, 0.35)
	return buf.Bytes()
}

// distOpts selects one cell of the topology matrix.
type distOpts struct {
	workers   int  // connected worker processes
	killLease int  // kill worker 0 when granted its killLease-th lease (0 = never)
	lanes     int  // simulation lanes inside each worker
	collapse  bool // static pre-pass inside each worker
	local     bool // coordinator local-fallback runner enabled
	traced    bool // span journals on coordinator and every worker
	rangeSize int
	tel       *telemetry.Campaign
}

// tracedHub builds a telemetry hub with a Tracer journaling into buf —
// the in-process stand-in for one traced process in the fleet.
func tracedHub(proc string, trace uint64, buf *bytes.Buffer) *telemetry.Campaign {
	tel := telemetry.NewCampaign(nil, nil)
	tel.Tracer = telemetry.NewTracer(telemetry.NewJournal(buf, nil), proc, trace)
	return tel
}

// runDistributed executes the campaign through a real coordinator and
// in-process workers speaking the full wire protocol over net.Pipe,
// and returns the merged report.
func runDistributed(t *testing.T, c campaign, o distOpts) *inject.Report {
	t.Helper()
	clk := newFakeClock()
	tel := o.tel
	var (
		coordSpans   bytes.Buffer
		coordJournal *telemetry.Journal
		coordRoot    telemetry.Span
	)
	if o.traced {
		if tel == nil {
			tel = telemetry.NewCampaign(nil, nil)
		}
		coordJournal = telemetry.NewJournal(&coordSpans, nil)
		tel.Tracer = telemetry.NewTracer(coordJournal, "coordinator", telemetry.TraceID("matrix"))
		coordRoot = tel.StartSpan("dist-campaign")
		tel.SetTraceRoot(coordRoot)
	}
	cfg := dist.Config{
		Plan:        c.plan,
		RangeSize:   o.rangeSize,
		LeaseTTL:    time.Hour, // disconnects drive recovery here, not TTLs
		MaxAttempts: 10,
		BackoffBase: time.Nanosecond, // one clock micro-step clears it
		BackoffCap:  time.Microsecond,
		Clock:       clk.Now,
		Telemetry:   tel,
	}
	if o.local {
		lt := *c.target
		lt.Lanes = o.lanes
		lt.Collapse = o.collapse
		cfg.LocalRunner = func(lo, hi int) (*inject.Checkpoint, error) {
			return lt.RunRange(c.golden, c.plan, 2, lo, hi)
		}
	}
	coord, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < o.workers; i++ {
		server, client := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord.Serve(server)
		}()
		wt := *c.target
		wt.Lanes = o.lanes
		wt.Collapse = o.collapse
		wcfg := dist.WorkerConfig{
			Name:      fmt.Sprintf("w%d", i),
			Target:    &wt,
			Golden:    c.golden,
			Plan:      c.plan,
			Workers:   2,
			Heartbeat: 50 * time.Millisecond,
		}
		if o.traced {
			// One hub per worker process, shared between the protocol
			// loop and the injection target so lane-batch spans nest
			// under the worker-lease span. The trace id arrives on the
			// wire, so the local tracer starts with zero.
			wtel := tracedHub(wcfg.Name, 0, &bytes.Buffer{})
			wt.Telemetry = wtel
			wcfg.Telemetry = wtel
		}
		if o.killLease > 0 && i == 0 {
			kill := o.killLease
			wcfg.OnLease = func(count, lo, hi int) bool { return count < kill }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist.RunWorker(client, wcfg)
		}()
	}

	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-coord.Done():
				return
			default:
				coord.Tick()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	select {
	case <-coord.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("distributed campaign did not complete")
	}
	<-tickDone
	wg.Wait()

	ck, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.target.AssembleReport(c.plan, ck)
	if err != nil {
		t.Fatal(err)
	}
	if o.traced {
		tel.PhaseDone()
		coordRoot.End()
		coordJournal.Close()
		if coordSpans.Len() == 0 {
			t.Fatal("traced run produced an empty coordinator span journal")
		}
	}
	return rep
}

// TestDistNeutralityMatrix is the acceptance bar one level up: the
// distributed merge must be byte-identical to the single-process
// serial run across cluster sizes, kill schedules, case studies, lane
// widths and collapse — including degradation to coordinator-only
// local execution when every worker dies.
func TestDistNeutralityMatrix(t *testing.T) {
	cells := []struct {
		name      string
		kind      string
		workers   int
		killLease int
		lanes     int
		collapse  bool
		local     bool
		traced    bool
	}{
		{"v2/1worker", "v2", 1, 0, 1, false, false, false},
		{"v2/2workers-kill", "v2", 2, 2, 1, false, false, false},
		{"v2/4workers-lanes64-collapse", "v2", 4, 0, 64, true, false, false},
		{"v2/2workers-kill-lanes64", "v2", 2, 2, 64, false, false, false},
		{"v2/2workers-kill-collapse", "v2", 2, 2, 1, true, false, false},
		{"v2/all-workers-die-local-fallback", "v2", 1, 1, 1, false, true, false},
		{"v1/2workers-collapse", "v1", 2, 0, 1, true, false, false},
		{"v1/2workers-kill-local", "v1", 2, 1, 64, false, true, false},
		{"lockstep/2workers-lanes64-collapse", "lockstep", 2, 0, 64, true, false, false},
		{"lockstep/2workers-kill", "lockstep", 2, 2, 1, false, false, false},
		// Tracing is a knob like lanes and collapse: the merged bytes
		// must not notice it, in calm fleets or through a worker kill.
		{"v2/1worker-traced", "v2", 1, 0, 1, false, false, true},
		{"v2/4workers-lanes64-traced", "v2", 4, 0, 64, false, false, true},
		{"v1/2workers-kill-traced", "v1", 2, 2, 1, false, false, true},
		{"lockstep/4workers-lanes64-collapse-traced", "lockstep", 4, 0, 64, true, false, true},
	}

	campaigns := map[string]campaign{}
	refs := map[string]*inject.Report{}
	refBytes := map[string][]byte{}
	for _, kind := range []string{"v1", "v2", "lockstep"} {
		c := buildCampaign(t, kind)
		campaigns[kind] = c
		refs[kind] = serialReference(t, c)
		refBytes[kind] = renderReport(refs[kind], c)
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			c := campaigns[cell.kind]
			rep := runDistributed(t, c, distOpts{
				workers:   cell.workers,
				killLease: cell.killLease,
				lanes:     cell.lanes,
				collapse:  cell.collapse,
				local:     cell.local,
				traced:    cell.traced,
				rangeSize: 7, // prime: ranges straddle zone and class boundaries
			})
			if !reflect.DeepEqual(refs[cell.kind], rep) {
				t.Fatal("distributed report differs structurally from the serial reference")
			}
			if got := renderReport(rep, c); !bytes.Equal(got, refBytes[cell.kind]) {
				t.Fatalf("distributed report bytes differ from the serial reference:\n--- serial\n%s\n--- distributed\n%s",
					refBytes[cell.kind], got)
			}
		})
	}

	// The prepared-worker column: what RunWorker does between hello and
	// fin, without the wire, compared at checkpoint-byte level.
	for _, kind := range []string{"v1", "v2", "lockstep"} {
		for _, lanes := range []int{1, 64} {
			c := campaigns[kind]
			t.Run(fmt.Sprintf("%s/prepared-worker-kill-lanes%d-collapse", kind, lanes), func(t *testing.T) {
				preparedWorkerColumn(t, c, lanes)
			})
		}
	}
}

// preparedWorkerColumn leases the plan in 7-row ranges to a worker that
// prepared once; the worker is killed on its second lease and a freshly
// prepared one re-runs that lease and the rest. Every range's bytes
// must equal the Target.RunRange wrapper's, the concatenation must be
// the serial campaign's snapshot, and the collapse counters summed over
// the disjoint ranges must be those of one collapsed serial campaign.
// The stride-sampled plan has no equivalent rows left, so copies of two
// early rows are appended: classes whose representative lies leases
// away from their members.
func preparedWorkerColumn(t *testing.T, c campaign, lanes int) {
	c.plan = append(append([]inject.Injection(nil), c.plan...), c.plan[0], c.plan[9], c.plan[0])
	ref := serialReference(t, c)
	wt := *c.target
	wt.Lanes = lanes
	wt.Collapse = true
	wt.Telemetry = telemetry.NewCampaign(nil, nil)
	wrapper := wt
	wrapper.Telemetry = nil
	prepare := func() *inject.Prepared {
		camp := wt.Prepare(c.golden, c.plan)
		return camp
	}

	camp := prepare()
	merged := &inject.Checkpoint{}
	for lease, lo := 1, 0; lo < len(c.plan); lease, lo = lease+1, lo+7 {
		hi := min(lo+7, len(c.plan))
		if lease == 2 {
			camp = prepare() // the killed worker's lease goes to a new one
		}
		ck, err := camp.RunRange(2, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		wck, err := wrapper.RunRange(c.golden, c.plan, 2, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(camp.Encode(ck), inject.EncodeCheckpoint(wck, c.plan)) {
			t.Fatalf("range [%d,%d): prepared worker and Target.RunRange disagree", lo, hi)
		}
		merged.Results = append(merged.Results, ck.Results...)
		merged.Quarantined = append(merged.Quarantined, ck.Quarantined...)
	}
	serial := &inject.Checkpoint{}
	for i := range ref.Results {
		serial.Results = append(serial.Results, inject.IndexedResult{PlanIndex: i, Result: ref.Results[i]})
	}
	if !bytes.Equal(camp.Encode(merged), inject.EncodeCheckpoint(serial, c.plan)) {
		t.Fatal("concatenated range checkpoints differ from the serial snapshot")
	}

	st := wt
	st.Telemetry = telemetry.NewCampaign(nil, nil)
	if _, err := st.Run(c.golden, c.plan); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"faults_collapsed", "faults_static_pruned"} {
		fleet, one := wt.Telemetry.Registry.Counter(name).Load(), st.Telemetry.Registry.Counter(name).Load()
		if fleet != one {
			t.Errorf("%s summed over the ranges = %d, one serial campaign counts %d", name, fleet, one)
		}
	}
	if st.Telemetry.Registry.Counter("faults_collapsed").Load() == 0 {
		t.Error("vacuous: the plan has no collapsed row")
	}
}

// TestDistTelemetryCounters pins the non-vacuity of the distributed
// scheduling counters: a campaign with a worker kill must move
// leases_issued and worker_retries, the workers_active gauge must
// return to zero, and the counters must surface through the /progress
// snapshot payload and its rendered line.
func TestDistTelemetryCounters(t *testing.T) {
	c := buildCampaign(t, "v2")
	ref := serialReference(t, c)
	tel := telemetry.NewCampaign(nil, nil)
	rep := runDistributed(t, c, distOpts{
		workers: 2, killLease: 2, lanes: 1, rangeSize: 7, tel: tel,
	})
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("telemetry run diverged from the serial reference")
	}
	snap := tel.Snapshot()
	if snap.LeasesIssued == 0 {
		t.Error("leases_issued stayed zero across a distributed campaign")
	}
	if snap.WorkerRetries == 0 {
		t.Error("worker_retries stayed zero across a worker kill")
	}
	if snap.WorkersActive != 0 {
		t.Errorf("workers_active = %d after campaign end, want 0", snap.WorkersActive)
	}
	if snap.RangesQuarantined != 0 {
		t.Errorf("ranges_quarantined = %d on a clean campaign, want 0", snap.RangesQuarantined)
	}
	line := snap.Line()
	if !strings.Contains(line, fmt.Sprintf("leases %d", snap.LeasesIssued)) {
		t.Errorf("progress line does not surface lease counters: %s", line)
	}
}

// runScripted drives one coordinator over the wire with a scripted
// per-lease latency schedule — the first lease is a straggler, every
// later lease is fast — and returns the number of leases granted. The
// fake clock makes every observed lease duration a pure function of
// the script.
func runScripted(t *testing.T, c campaign, tel *telemetry.Campaign) int {
	t.Helper()
	clk := newFakeClock()
	coord, err := dist.New(dist.Config{
		Plan:        c.plan,
		RangeSize:   16,
		LeaseTTL:    time.Hour,
		MaxAttempts: 5,
		BackoffBase: time.Nanosecond,
		Clock:       clk.Now,
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go coord.Serve(server)
	wc := dist.NewConn(client)
	if err := wc.Write(helloFor("scripted", c.plan)); err != nil {
		t.Fatal(err)
	}

	leases := 0
	for ; ; leases++ {
		m, err := wc.Read()
		if err != nil {
			t.Fatalf("lease %d: %v", leases, err)
		}
		if m.T == dist.MsgFin {
			break
		}
		if m.T != dist.MsgLease {
			t.Fatalf("lease %d: got %q, want a lease", leases, m.T)
		}
		// The straggler: 100ms per row on the first lease. Everything
		// after runs at 0.5ms per row.
		d := time.Duration(m.Hi-m.Lo) * 500 * time.Microsecond
		if leases == 0 {
			d = time.Duration(m.Hi-m.Lo) * 100 * time.Millisecond
		}
		clk.Advance(d)
		ck, err := c.target.RunRange(c.golden, c.plan, 2, m.Lo, m.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := wc.Write(&dist.Msg{
			T: dist.MsgResult, Lease: m.Lease,
			Ckpt: inject.EncodeCheckpoint(ck, c.plan),
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-coord.Done()
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	return leases
}

// TestRangeHistogramsAlwaysLive: the range-duration and range-rows
// histograms feed /metrics and cmd/tracer's straggler report, so every
// live-lease completion must populate them.
func TestRangeHistogramsAlwaysLive(t *testing.T) {
	c := buildCampaign(t, "v2")
	tel := telemetry.NewCampaign(nil, nil)
	leases := runScripted(t, c, tel)

	reg := tel.Registry.Snapshot()
	for _, name := range []string{"range_duration_ms", "range_rows"} {
		h, ok := reg.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s not registered", name)
		}
		if h.Count != int64(leases) {
			t.Fatalf("%s count = %d, want one observation per live lease (%d)", name, h.Count, leases)
		}
	}
	if h := reg.Histograms["range_rows"]; h.Sum != int64(len(c.plan)) {
		t.Fatalf("range_rows sum = %d, want plan length %d", h.Sum, len(c.plan))
	}
}

// helloFor builds the handshake message for a plan.
func helloFor(name string, plan []inject.Injection) *dist.Msg {
	return &dist.Msg{
		T:        dist.MsgHello,
		V:        dist.ProtocolVersion,
		Worker:   name,
		PlanHash: fmt.Sprintf("%016x", inject.PlanHash(plan)),
		PlanLen:  len(plan),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseExpiryFallsBackToLocal: a worker that takes a lease and
// goes silent must lose it at the TTL (leases_expired moves), and once
// the dead worker disconnects the coordinator must finish the whole
// campaign through the local runner — byte-identical to the serial
// reference.
func TestLeaseExpiryFallsBackToLocal(t *testing.T) {
	c := buildCampaign(t, "v2")
	ref := serialReference(t, c)
	clk := newFakeClock()
	tel := telemetry.NewCampaign(nil, nil)
	lt := *c.target
	coord, err := dist.New(dist.Config{
		Plan:        c.plan,
		RangeSize:   16,
		LeaseTTL:    time.Minute,
		MaxAttempts: 5,
		BackoffBase: time.Millisecond,
		Clock:       clk.Now,
		Telemetry:   tel,
		LocalRunner: func(lo, hi int) (*inject.Checkpoint, error) {
			return lt.RunRange(c.golden, c.plan, 2, lo, hi)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	server, client := net.Pipe()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		coord.Serve(server)
	}()
	wc := dist.NewConn(client)
	if err := wc.Write(helloFor("silent", c.plan)); err != nil {
		t.Fatal(err)
	}
	lease, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if lease.T != dist.MsgLease {
		t.Fatalf("got %q after hello, want a lease", lease.T)
	}

	// Never heartbeat; jump past the TTL and let the scheduler notice.
	clk.Advance(2 * time.Minute)
	coord.Tick()
	if got := tel.Snapshot().LeasesExpired; got != 1 {
		t.Fatalf("leases_expired = %d after TTL lapse, want 1", got)
	}

	// The dead worker drops off; with no live workers left the
	// coordinator must degrade to local-only execution.
	client.Close()
	<-serveDone
	deadline := time.Now().Add(120 * time.Second)
	for {
		select {
		case <-coord.Done():
		default:
			if time.Now().After(deadline) {
				t.Fatal("coordinator did not finish locally")
			}
			clk.Advance(10 * time.Millisecond) // clear re-issue backoff
			coord.Tick()
			continue
		}
		break
	}

	ck, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.target.AssembleReport(c.plan, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("local-fallback report differs from the serial reference")
	}
	if got := renderReport(rep, c); !bytes.Equal(got, renderReport(ref, c)) {
		t.Fatal("local-fallback report bytes differ from the serial reference")
	}
	if got := tel.Snapshot().WorkersActive; got != 0 {
		t.Fatalf("workers_active = %d after disconnect, want 0", got)
	}
}

// TestFailingRangeQuarantinedWithBackoff: a range whose worker fails
// every attempt is re-issued with backoff gating each retry and
// quarantined at MaxAttempts, with every plan row conservatively
// recorded dangerous-undetected — the PR 3 semantics lifted to ranges.
func TestFailingRangeQuarantinedWithBackoff(t *testing.T) {
	c := buildCampaign(t, "v2")
	clk := newFakeClock()
	tel := telemetry.NewCampaign(nil, nil)
	coord, err := dist.New(dist.Config{
		Plan:        c.plan,
		RangeSize:   len(c.plan), // one range: the whole campaign poisons
		LeaseTTL:    time.Hour,
		MaxAttempts: 3,
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  10 * time.Second,
		Clock:       clk.Now,
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go coord.Serve(server)
	wc := dist.NewConn(client)
	if err := wc.Write(helloFor("flaky", c.plan)); err != nil {
		t.Fatal(err)
	}

	retries := func() int64 { return tel.Snapshot().WorkerRetries }
	for attempt := 1; attempt <= 3; attempt++ {
		m, err := wc.Read()
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if m.T != dist.MsgLease {
			t.Fatalf("attempt %d: got %q, want a lease", attempt, m.T)
		}
		if err := wc.Write(&dist.Msg{T: dist.MsgFail, Lease: m.Lease, Err: "synthetic failure"}); err != nil {
			t.Fatal(err)
		}
		want := int64(attempt)
		waitFor(t, "retry counter", func() bool { return retries() == want })
		if attempt == 3 {
			break
		}
		// Backoff gates the re-issue: a scheduler pass before the
		// backoff elapses must not grant a new lease.
		coord.Tick()
		if got := tel.Snapshot().LeasesIssued; got != int64(attempt) {
			t.Fatalf("lease re-issued before backoff elapsed (leases_issued = %d)", got)
		}
		clk.Advance(time.Second)
		coord.Tick()
	}

	// Third failure exhausts the attempt budget: quarantine + fin.
	fin, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if fin.T != dist.MsgFin {
		t.Fatalf("got %q after quarantine, want fin", fin.T)
	}
	<-coord.Done()
	if got := tel.Snapshot().RangesQuarantined; got != 1 {
		t.Fatalf("ranges_quarantined = %d, want 1", got)
	}

	ck, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Results) != 0 || len(ck.Quarantined) != len(c.plan) {
		t.Fatalf("merged state has %d results + %d quarantined, want 0 + %d",
			len(ck.Results), len(ck.Quarantined), len(c.plan))
	}
	for i, q := range ck.Quarantined {
		if q.PlanIndex != i || q.Injection != c.plan[i] {
			t.Fatalf("quarantine record %d misindexed", i)
		}
		if q.Attempts != 3 || !strings.Contains(q.Err, "range quarantined") {
			t.Fatalf("quarantine record %d: attempts=%d err=%q", i, q.Attempts, q.Err)
		}
	}
	rep, err := c.target.AssembleReport(c.plan, ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != len(c.plan) {
		t.Fatal("assembled report does not carry the conservative quarantine accounting")
	}
}

// TestDuplicateDivergenceFailsCampaign: at-least-once execution is
// only safe because duplicate completions of a range are verified
// byte-identical; a divergent duplicate is a determinism violation and
// must fail the whole campaign rather than silently picking a winner.
func TestDuplicateDivergenceFailsCampaign(t *testing.T) {
	c := buildCampaign(t, "v2")
	clk := newFakeClock()
	half := (len(c.plan) + 1) / 2
	coord, err := dist.New(dist.Config{
		Plan:        c.plan,
		RangeSize:   half, // two ranges: campaign stays open past r0
		LeaseTTL:    time.Minute,
		MaxAttempts: 10,
		BackoffBase: time.Millisecond,
		Clock:       clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go coord.Serve(server)
	wc := dist.NewConn(client)
	if err := wc.Write(helloFor("twofaced", c.plan)); err != nil {
		t.Fatal(err)
	}
	lease1, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}

	// Lose the first lease to a TTL expiry; the scheduler hands the
	// idle worker the second range while the first sits in backoff.
	clk.Advance(2 * time.Minute)
	coord.Tick()
	lease2, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if lease2.T != dist.MsgLease || lease2.Lo != lease1.Hi {
		t.Fatalf("expected a lease on the second range, got %q [%d,%d)", lease2.T, lease2.Lo, lease2.Hi)
	}

	// The expired lease now delivers — a correct, validated result for
	// the first range, absorbed under at-least-once semantics.
	good, err := c.target.RunRange(c.golden, c.plan, 2, lease1.Lo, lease1.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Write(&dist.Msg{
		T: dist.MsgResult, Lease: lease1.Lease,
		Ckpt: inject.EncodeCheckpoint(good, c.plan),
	}); err != nil {
		t.Fatal(err)
	}

	// A retransmit of the same range then arrives with different bytes.
	diverged := &inject.Checkpoint{
		Results:     append([]inject.IndexedResult(nil), good.Results...),
		Quarantined: good.Quarantined,
	}
	diverged.Results[0].Result.FirstDevCycle++
	if err := wc.Write(&dist.Msg{
		T: dist.MsgResult, Lease: lease1.Lease,
		Ckpt: inject.EncodeCheckpoint(diverged, c.plan),
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "campaign failure", func() bool { return coord.Err() != nil })
	if !strings.Contains(coord.Err().Error(), "determinism violation") {
		t.Fatalf("campaign error = %v, want a determinism violation", coord.Err())
	}
	<-coord.Done()
	if _, err := coord.Result(); err == nil {
		t.Fatal("Result succeeded on a failed campaign")
	}
}

// TestDuplicateIdenticalAccepted: the benign at-least-once case — the
// same range completing twice with identical bytes — must be absorbed
// without double-counting and without failing anything.
func TestDuplicateIdenticalAccepted(t *testing.T) {
	c := buildCampaign(t, "v2")
	clk := newFakeClock()
	coord, err := dist.New(dist.Config{
		Plan:        c.plan,
		RangeSize:   len(c.plan),
		LeaseTTL:    time.Minute,
		MaxAttempts: 10,
		BackoffBase: time.Millisecond,
		Clock:       clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go coord.Serve(server)
	wc := dist.NewConn(client)
	if err := wc.Write(helloFor("echo", c.plan)); err != nil {
		t.Fatal(err)
	}
	lease1, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	coord.Tick()
	clk.Advance(time.Second)
	coord.Tick()
	lease2, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}

	good, err := c.target.RunRange(c.golden, c.plan, 2, lease1.Lo, lease1.Hi)
	if err != nil {
		t.Fatal(err)
	}
	enc := inject.EncodeCheckpoint(good, c.plan)
	for _, lease := range []int64{lease1.Lease, lease2.Lease} {
		if err := wc.Write(&dist.Msg{T: dist.MsgResult, Lease: lease, Ckpt: enc}); err != nil {
			t.Fatal(err)
		}
	}
	// First result completes the only range; fin follows. The
	// duplicate is verified and dropped without reopening anything.
	fin, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if fin.T != dist.MsgFin {
		t.Fatalf("got %q, want fin", fin.T)
	}
	<-coord.Done()
	if err := coord.Err(); err != nil {
		t.Fatalf("identical duplicate failed the campaign: %v", err)
	}
	ck, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Results)+len(ck.Quarantined) != len(c.plan) {
		t.Fatalf("merged state covers %d rows, want %d (no double-counting)",
			len(ck.Results)+len(ck.Quarantined), len(c.plan))
	}
}

// TestLocalRunnerDuplicate: the local runner holds range 0 when a late
// result for it arrives under a revoked worker lease and completes it.
// The local runner's own result is then a duplicate, checked by the
// same rule as a worker's: identical bytes are absorbed and the report
// equals the serial reference, divergent bytes fail the campaign.
func TestLocalRunnerDuplicate(t *testing.T) {
	c := buildCampaign(t, "v2")
	refBytes := renderReport(serialReference(t, c), c)
	for _, tc := range []struct {
		name    string
		diverge bool
	}{{"identical", false}, {"divergent", true}} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			half := (len(c.plan) + 1) / 2
			started := make(chan struct{})
			release := make(chan struct{})
			coord, err := dist.New(dist.Config{
				Plan:        c.plan,
				RangeSize:   half, // two ranges: the campaign stays open past range 0
				LeaseTTL:    time.Minute,
				MaxAttempts: 10,
				BackoffBase: time.Millisecond,
				Clock:       clk.Now,
				LocalRunner: func(lo, hi int) (*inject.Checkpoint, error) {
					close(started)
					<-release
					return c.target.RunRange(c.golden, c.plan, 2, lo, hi)
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			// Worker A takes range 0, goes silent past the TTL, is
			// handed range 1, and disconnects.
			serverA, clientA := net.Pipe()
			serveA := make(chan struct{})
			go func() {
				defer close(serveA)
				coord.Serve(serverA)
			}()
			a := dist.NewConn(clientA)
			if err := a.Write(helloFor("A", c.plan)); err != nil {
				t.Fatal(err)
			}
			lease1, err := a.Read()
			if err != nil {
				t.Fatal(err)
			}
			if lease1.T != dist.MsgLease || lease1.Lo != 0 {
				t.Fatalf("A's first grant: %q [%d,%d), want a lease on range 0", lease1.T, lease1.Lo, lease1.Hi)
			}
			clk.Advance(2 * time.Minute)
			coord.Tick()
			if _, err := a.Read(); err != nil {
				t.Fatal(err)
			}
			clientA.Close()
			<-serveA

			// No live worker: once the backoff clears, the local
			// runner takes range 0 and blocks.
			clk.Advance(time.Second)
			tickDone := make(chan struct{})
			go func() {
				defer close(tickDone)
				coord.Tick()
			}()
			<-started

			// Worker B joins, is granted range 1, and delivers A's
			// revoked lease's result for range 0, which completes it.
			serverB, clientB := net.Pipe()
			defer clientB.Close()
			go coord.Serve(serverB)
			b := dist.NewConn(clientB)
			if err := b.Write(helloFor("B", c.plan)); err != nil {
				t.Fatal(err)
			}
			lease3, err := b.Read()
			if err != nil {
				t.Fatal(err)
			}
			if lease3.T != dist.MsgLease || lease3.Lo != half {
				t.Fatalf("B's grant: %q [%d,%d), want a lease on range 1", lease3.T, lease3.Lo, lease3.Hi)
			}
			late, err := c.target.RunRange(c.golden, c.plan, 2, lease1.Lo, lease1.Hi)
			if err != nil {
				t.Fatal(err)
			}
			if tc.diverge {
				late.Results[0].Result.FirstDevCycle++
			}
			if err := b.Write(&dist.Msg{
				T: dist.MsgResult, Lease: lease1.Lease,
				Ckpt: inject.EncodeCheckpoint(late, c.plan),
			}); err != nil {
				t.Fatal(err)
			}
			// net.Pipe is unbuffered and Serve handles one message at a
			// time, so once this heartbeat is read the result has been
			// handled.
			if err := b.Write(&dist.Msg{T: dist.MsgHeartbeat, Lease: lease3.Lease}); err != nil {
				t.Fatal(err)
			}

			// The local runner's result is compared inside this Tick.
			close(release)
			<-tickDone
			if tc.diverge {
				if err := coord.Err(); err == nil || !strings.Contains(err.Error(), "determinism violation") {
					t.Fatalf("campaign error = %v, want a determinism violation", err)
				}
				return
			}
			if err := coord.Err(); err != nil {
				t.Fatalf("identical local duplicate failed the campaign: %v", err)
			}

			ck, err := c.target.RunRange(c.golden, c.plan, 2, lease3.Lo, lease3.Hi)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Write(&dist.Msg{
				T: dist.MsgResult, Lease: lease3.Lease,
				Ckpt: inject.EncodeCheckpoint(ck, c.plan),
			}); err != nil {
				t.Fatal(err)
			}
			if fin, err := b.Read(); err != nil || fin.T != dist.MsgFin {
				t.Fatalf("got %v, %v after the last range, want fin", fin, err)
			}
			<-coord.Done()
			merged, err := coord.Result()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.target.AssembleReport(c.plan, merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderReport(rep, c), refBytes) {
				t.Fatal("report bytes differ from the serial reference")
			}
		})
	}
}

// TestHelloValidation: a worker with a different plan fingerprint or
// protocol version must be rejected before any lease is issued.
func TestHelloValidation(t *testing.T) {
	c := buildCampaign(t, "v2")
	clk := newFakeClock()
	for _, tc := range []struct {
		name  string
		hello *dist.Msg
	}{
		{"plan mismatch", &dist.Msg{
			T: dist.MsgHello, V: dist.ProtocolVersion, Worker: "alien",
			PlanHash: "deadbeefdeadbeef", PlanLen: len(c.plan),
		}},
		{"plan length mismatch", func() *dist.Msg {
			m := helloFor("short", c.plan)
			m.PlanLen--
			return m
		}()},
		{"protocol version", func() *dist.Msg {
			m := helloFor("old", c.plan)
			m.V = dist.ProtocolVersion + 1
			return m
		}()},
		{"not a hello", &dist.Msg{T: dist.MsgHeartbeat}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := dist.New(dist.Config{Plan: c.plan, Clock: clk.Now})
			if err != nil {
				t.Fatal(err)
			}
			server, client := net.Pipe()
			go coord.Serve(server)
			wc := dist.NewConn(client)
			if err := wc.Write(tc.hello); err != nil {
				t.Fatal(err)
			}
			m, err := wc.Read()
			if err != nil {
				t.Fatal(err)
			}
			if m.T != dist.MsgError {
				t.Fatalf("got %q, want an error rejection", m.T)
			}
		})
	}
}

// TestEmptyPlanCompletesImmediately: zero ranges means the campaign is
// born finished, and late workers get fin at hello.
func TestEmptyPlanCompletesImmediately(t *testing.T) {
	clk := newFakeClock()
	coord, err := dist.New(dist.Config{Plan: nil, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("empty campaign not finished at construction")
	}
	ck, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Results) != 0 || len(ck.Quarantined) != 0 {
		t.Fatal("empty campaign produced records")
	}
	server, client := net.Pipe()
	go coord.Serve(server)
	wc := dist.NewConn(client)
	if err := wc.Write(helloFor("late", nil)); err != nil {
		t.Fatal(err)
	}
	m, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if m.T != dist.MsgFin {
		t.Fatalf("late worker got %q, want fin", m.T)
	}
}

// TestSpecKey: the cheap content-address identity of a campaign. It
// must cover every campaign-defining field, exclude the process-local
// warmstart knob, and stay bit-stable (the serve daemon's result cache
// and any on-disk index key off these strings).
func TestSpecKey(t *testing.T) {
	base := dist.Spec{Design: "v2", AddrWidth: 8, Words: 8,
		Transient: 1, Permanent: 1, Wide: 16, Seed: 1}
	if got, want := base.Key(), "v2/a8/w8/t1/p1/g16/s1"; got != want {
		t.Fatalf("Key() = %q, want %q (the rendering is a persistence contract)", got, want)
	}
	warm := base
	warm.Warmstart = 512
	if warm.Key() != base.Key() {
		t.Fatal("warmstart must not alter the campaign key")
	}
	if warm.TraceID() != base.TraceID() {
		t.Fatal("warmstart must not alter the campaign trace id")
	}
	seen := map[string]bool{base.Key(): true}
	for _, mutate := range []func(*dist.Spec){
		func(s *dist.Spec) { s.Design = "v1" },
		func(s *dist.Spec) { s.AddrWidth = 6 },
		func(s *dist.Spec) { s.Words = 4 },
		func(s *dist.Spec) { s.Transient = 2 },
		func(s *dist.Spec) { s.Permanent = 2 },
		func(s *dist.Spec) { s.Wide = 4 },
		func(s *dist.Spec) { s.Seed = 2 },
	} {
		sp := base
		mutate(&sp)
		if seen[sp.Key()] {
			t.Fatalf("key %q collides with another campaign", sp.Key())
		}
		seen[sp.Key()] = true
	}
}
