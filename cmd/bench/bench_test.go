package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// ---------- statistics helpers ----------

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{3, 1}, 0.25); got != 1 {
		t.Errorf("two samples clamp to the ends: got %v", got)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailPercentile(xs, 0.9); ok {
		t.Error("99 samples leave 9.9 beyond p90: must not report")
	}
	xs = append(xs, 99)
	if v, ok := tailPercentile(xs, 0.9); !ok || v < 89 || v > 91 {
		t.Errorf("p90 of 0..99 = %v (ok=%v), want about 90", v, ok)
	}
	if _, ok := tailPercentile(xs, 0.99); ok {
		t.Error("100 samples leave 1 beyond p99: must not report")
	}
}

// ---------- generator ----------

// drive replays a generator with one client: every op completes before
// the next is drawn.
func drive(seed uint64, n int) (classes []opClass, subs []serve.Submission) {
	g := newGenerator(fullSizing.Served, seed)
	for i := 0; i < n; i++ {
		sub, class := g.next()
		classes, subs = append(classes, class), append(subs, sub)
		if class == opFresh {
			g.completed(sub)
		}
	}
	return classes, subs
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	c1, s1 := drive(7, 400)
	c2, s2 := drive(7, 400)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different op classes or submissions")
	}
	_, s3 := drive(8, 400)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("another seed gave the same submissions")
	}
	if c1[0] != opFresh {
		t.Error("the first op has nothing to repeat and must be fresh")
	}
	count := map[opClass]int{}
	for i, c := range c1 {
		count[c]++
		if (c == opRegrade) != (s1[i].TargetSIL == fullSizing.Served.RegradeSIL) {
			t.Fatalf("op %d: class %v with target_sil %d", i, c, s1[i].TargetSIL)
		}
	}
	k := fullSizing.Served
	// Blocks of ten hold the exact mix (the very first op is forced fresh).
	for class, per10 := range map[opClass]int{opFresh: k.FreshPer10, opRepeat: k.RepeatPer10, opRegrade: 10 - k.FreshPer10 - k.RepeatPer10} {
		if got, want := count[class], per10*len(c1)/10; got < want-1 || got > want+1 {
			t.Errorf("%v ops: %d of %d, want %d", class, got, len(c1), want)
		}
	}
}

// Every report a served submission can produce is pinned, at any seed.
func TestEveryServedSubmissionIsPinned(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range []*sizing{&fullSizing, &smokeSizing} {
		g := newGenerator(sz.Served, 12345)
		for i := 0; i < 3*sz.Served.SeedSpace; i++ {
			sub, class := g.next()
			if _, ok := p.pinned[servedKey(sub)]; !ok {
				t.Fatalf("%s: no pin for %s", sz.Name, servedKey(sub))
			}
			if class == opFresh {
				g.completed(sub)
			}
		}
	}
}

// ---------- BENCHMARK.json and emitted names ----------

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTheCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit or bound outside the contract", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "cmd/bench" {
		t.Errorf("run_seconds %d / paths %v outside the contract", bf.RunSeconds, bf.Paths)
	}
}

// contractResult is the driver's view of a run's last line.
type contractResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs one workload in-process with the driver's flag spelling.
func runSmoke(t *testing.T, workload, trace string) (contractResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace, "-smoke"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var cr contractResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cr); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result object: %v", workload, trace, err)
	}
	return cr, stdout.String()
}

// TestSmoke runs all five workloads end to end at the smoke sizing,
// untraced and traced: digest checks pass, and each run emits exactly
// the metric set BENCHMARK.json promises for its kind.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	measured := map[string]bool{} // per-layer names some workload measured
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cr, out := runSmoke(t, w.name, trace)
			if !cr.Correct || cr.Failed != 0 || cr.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.name, trace, cr.Correct, cr.Attempted, cr.Failed, out)
			}
			if !strings.Contains(out, "digest_pinned=true") {
				t.Errorf("%s trace=%s: seed 1 must be pinned\n%s", w.name, trace, out)
			}
			if len(cr.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json lists %d", w.name, trace, len(cr.Metrics), len(want[trace]))
			}
			for n, m := range cr.Metrics {
				if unit, ok := want[trace][n]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%s: emitted %s [%s], BENCHMARK.json has unit %q (listed=%v)", w.name, trace, n, m.Unit, unit, ok)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, n, m.Value)
				}
				if trace == "1" && m.Value != 0 {
					measured[n] = true
				}
			}
		}
	}
	// Lines that legitimately read 0 on a healthy smoke run.
	zeroOK := map[string]bool{
		"dist.leases_expired": true, "dist.worker_retries": true, "serve.rejected": true, "fail_frac": true,
		"miss_p90_ms": true, "serve.hit_p75_us": true, // need more samples than a smoke run makes
	}
	for n := range want["1"] {
		if !measured[n] && !zeroOK[n] {
			t.Errorf("per-layer %s was measured by no workload", n)
		}
	}
}

func TestUnpinnedSeedStillChecksAgreement(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "fleet_2w", "-seed", "987654", "-seconds", "0", "-smoke"}, &stdout, &stderr)
	if code != 0 || !strings.Contains(stdout.String(), "digest_pinned=false") {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	res := &result{DigestPinned: true}
	c := &runCtx{pins: p, res: res}
	for key := range p.pinned {
		c.checkReport(key, []byte("not the pinned report"))
		break
	}
	if res.Failed != 1 || !strings.HasPrefix(res.contractLine(), `{"correct": false`) {
		t.Fatalf("a report that misses its pin must fail the op: failed=%d", res.Failed)
	}
	// Unpinned inputs: the first report sets the reference, the next must match.
	c.checkReport("assess:nowhere", []byte("a"))
	c.checkReport("assess:nowhere", []byte("a"))
	if res.Failed != 1 || res.DigestPinned {
		t.Fatalf("agreeing unpinned reports: failed=%d pinned=%v", res.Failed, res.DigestPinned)
	}
	c.checkReport("assess:nowhere", []byte("b"))
	if res.Failed != 2 {
		t.Fatal("disagreeing unpinned reports must fail")
	}
}

// ---------- staged replay ----------

// The replay is only worth its stage spans if it is core.Run: same
// inject.Reports, same report bytes, and spans that add up to the
// untraced wall.
func TestReplayIsCoreRun(t *testing.T) {
	d := designKnobs{Design: "v2", AddrWidth: 6, Words: 8, Transient: 8, Permanent: 8}
	a, err := newAssessment(d, engineKnobs{Lanes: 64, SnapshotEvery: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(a.dut, a.opts)
	if err != nil {
		t.Fatal(err)
	}
	c := &runCtx{tr: newTracer(), res: &result{}}
	got, err := a.replay(c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Validation.Report, want.Validation.Report) ||
		!reflect.DeepEqual(got.Validation.WideReport, want.Validation.WideReport) {
		t.Fatal("replay's inject.Reports differ from core.Run's")
	}
	if got.Report() != want.Report() {
		t.Fatal("replay's report bytes differ from core.Run's")
	}

	// Timing fidelity, best of a few attempts so a noisy host does not
	// fail the suite: |1 − Σ stage spans ÷ core.Run wall| < 0.03.
	best := math.Inf(1)
	for attempt := 0; attempt < 4 && best >= 0.03; attempt++ {
		var plain []float64
		c.tr = newTracer()
		for op := 0; op < 3; op++ {
			start := time.Now()
			if _, err := core.Run(a.dut, a.opts); err != nil {
				t.Fatal(err)
			}
			plain = append(plain, time.Since(start).Seconds())
			if _, err := a.replay(c, op, nil); err != nil {
				t.Fatal(err)
			}
		}
		stages := 0.0
		for _, name := range stageSpans {
			stages += median(c.tr.perOp(name, time.Second))
		}
		best = math.Min(best, math.Abs(1-stages/median(plain)))
	}
	if best >= 0.03 {
		t.Errorf("core.unattributed_frac = %.4f, the replay must stay within 0.03 of core.Run", best)
	}
}
