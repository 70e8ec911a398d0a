package core_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// smallOptions is a validating flow on a plan small enough for a
// matrix of runs.
func smallOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Plan = inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 1}
	opts.WideFaults = 2
	return opts
}

// smallDUT is a design at the reduced memory size whose toggle
// coverage is measured on the validation trace: toggle is half of a
// small run otherwise, and grading reads its result only.
func smallDUT(t *testing.T, design string) core.DUT {
	t.Helper()
	dut, err := designs.BuildDUT(design, 4, 2, designs.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return quickToggle{dut}
}

type quickToggle struct{ core.DUT }

func (d quickToggle) CoverageTrace() *workload.Trace { return d.ValidationTrace() }

// gradings is every grading the tests cover: TargetSIL 1–4 × HFT 0–2
// × three tolerances, from the tightest to the widest band.
func gradings() []core.Options {
	var out []core.Options
	for sil := iec61508.SIL1; sil <= iec61508.SIL4; sil++ {
		for hft := 0; hft <= 2; hft++ {
			for _, tol := range []float64{0.05, 0.35, 1} {
				opts := smallOptions()
				opts.TargetSIL, opts.HFT, opts.Tolerance = sil, hft, tol
				out = append(out, opts)
			}
		}
	}
	return out
}

// handGraded grades a measured assessment field by field the way the
// flow graded before Grade existed — the SIL table, the inject package's
// own tolerance check — as the oracle Grade is held to.
func handGraded(as *core.Assessment, b core.Options) *core.Assessment {
	v := *as.Validation
	v.Rows = v.Report.ValidateWorksheet(as.Analysis, as.Worksheet, b.Tolerance)
	v.PassFraction = inject.PassFraction(v.Rows)
	sil := iec61508.MaxSIL(as.Metrics.SFF(), b.HFT, true)
	return &core.Assessment{
		Name: as.Name, Analysis: as.Analysis, Worksheet: as.Worksheet, DRC: as.DRC,
		Metrics: as.Metrics, Sensitivity: as.Sensitivity, Validation: &v,
		SIL: sil, TargetSIL: b.TargetSIL, TargetMet: sil >= b.TargetSIL,
	}
}

// TestGradeOfAssessIsRun: evidence measured under one grading, graded
// under another, renders the bytes a fresh Run under the second and the
// hand-graded oracle render — for the full assessment and for the
// evidence alone, as a cache holds it.
func TestGradeOfAssessIsRun(t *testing.T) {
	for _, design := range []string{"v1", "v2", "cpu-lockstep"} {
		dut := smallDUT(t, design)
		measured, err := core.Assess(dut, smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		cached := &core.Assessment{Evidence: measured.Evidence}
		met, missed := 0, 0
		for _, b := range gradings() {
			want, err := core.Run(dut, b)
			if err != nil {
				t.Fatal(err)
			}
			oracle := handGraded(measured, b)
			if want.Report() != oracle.Report() || want.SRS() != oracle.SRS() {
				t.Fatalf("%s SIL%d HFT%d tol %g: Run renders other bytes than the hand-graded oracle",
					design, b.TargetSIL, b.HFT, b.Tolerance)
			}
			for name, in := range map[string]*core.Assessment{"assessed": measured, "evidence": cached} {
				got := core.Grade(in, b)
				if got.Report() != want.Report() || got.SRS() != want.SRS() {
					t.Fatalf("%s SIL%d HFT%d tol %g: graded %s renders other bytes than Run",
						design, b.TargetSIL, b.HFT, b.Tolerance, name)
				}
				if got.TargetMet != want.TargetMet || got.DRCClean() != want.DRCClean() ||
					got.CampaignHealthy() != want.CampaignHealthy() {
					t.Fatalf("%s SIL%d HFT%d tol %g: graded %s verdict differs from Run", design, b.TargetSIL, b.HFT, b.Tolerance, name)
				}
			}
			if want.TargetMet {
				met++
			} else {
				missed++
			}
		}
		// The matrix must reach both verdicts, or it tests one branch.
		if met == 0 || missed == 0 {
			t.Errorf("%s: target met %d, missed %d times over the matrix", design, met, missed)
		}
	}
}

// TestGradeLeavesEvidenceAlone: grading the same evidence twice, under
// different gradings, leaves it DeepEqual to a second measurement of
// the same design.
func TestGradeLeavesEvidenceAlone(t *testing.T) {
	dut := smallDUT(t, "v2")
	ev, err := core.Assess(dut, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	again, err := core.Assess(dut, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.Evidence, again.Evidence) || !reflect.DeepEqual(ev.Validation, again.Validation) {
		t.Fatal("two measurements of one design differ")
	}
	loose, tight := smallOptions(), smallOptions()
	loose.TargetSIL, loose.HFT, loose.Tolerance = iec61508.SIL1, 2, 1
	tight.TargetSIL, tight.HFT, tight.Tolerance = iec61508.SIL4, 0, 0.05
	a, b := core.Grade(ev, loose), core.Grade(ev, tight)
	if a.Validation.PassFraction == b.Validation.PassFraction {
		t.Fatal("the two gradings agree: the test cannot see a graded row leak")
	}
	if !reflect.DeepEqual(ev.Evidence, again.Evidence) || !reflect.DeepEqual(ev.Validation, again.Validation) {
		t.Fatal("Grade mutated the evidence it graded")
	}
	if ev.SIL != again.SIL || ev.TargetMet != again.TargetMet {
		t.Fatal("Grade mutated the assessment it graded")
	}

	// Measuring reads no grading knob: both gradings measure the same
	// evidence.
	for _, opts := range []core.Options{loose, tight} {
		other, err := core.Assess(dut, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(other.Evidence, ev.Evidence) {
			t.Fatal("Assess depends on TargetSIL, HFT or Tolerance")
		}
	}
}

// assessPhases are the phase spans of one validating assessment, in
// the order the flow runs them: one per ledger stage of core.Run.
var assessPhases = []string{
	"zone-extraction", "worksheet", "drc-preflight", "golden-run", "plan",
	"zone-campaign", "wide-campaign", "analyze", "toggle-coverage",
}

// spanLine is the part of a journal span event the phase test reads.
type spanLine struct {
	TS     string `json:"ts"`
	Ev     string `json:"ev"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
}

// span is one span of the journal, on the journal's clock.
type span struct {
	name, parent string
	start, end   time.Time
}

// TestAssessPhases: on an injected clock and an in-memory journal, each
// Run opens one assessment span with every phase exactly once, in
// order, disjoint, and inside it.
func TestAssessPhases(t *testing.T) {
	var tick atomic.Int64
	clock := func() time.Time { return time.Unix(0, tick.Add(1)*int64(time.Microsecond)) }
	var sink strings.Builder
	j := telemetry.NewJournal(&sink, clock)
	tel := telemetry.NewCampaign(j, clock)
	tel.Tracer = telemetry.NewTracer(j, "core-test", 1)
	names := []string{"v2", "cpu-lockstep"}
	for _, design := range names {
		opts := smallOptions()
		opts.Telemetry = tel
		if _, err := core.Run(smallDUT(t, design), opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	spans := map[int]*span{}
	var order []int // span ids, by start
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var l spanLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		ts, err := time.Parse(time.RFC3339Nano, l.TS)
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch l.Ev {
		case telemetry.EvSpanStart:
			sp := &span{name: l.Name, start: ts}
			if p := spans[l.Parent]; p != nil {
				sp.parent = p.name
			}
			spans[l.Span] = sp
			order = append(order, l.Span)
		case telemetry.EvSpanEnd:
			spans[l.Span].end = ts
		}
	}
	var runs [][]*span // per assessment span: itself, then its children
	for _, id := range order {
		sp := spans[id]
		if sp.end.IsZero() {
			t.Fatalf("span %s never ended", sp.name)
		}
		switch {
		case sp.name == "assessment":
			runs = append(runs, []*span{sp})
		case sp.parent == "assessment":
			runs[len(runs)-1] = append(runs[len(runs)-1], sp)
		}
	}
	if len(runs) != len(names) {
		t.Fatalf("%d assessment spans, want one per Run (%d)", len(runs), len(names))
	}
	for _, run := range runs {
		outer, phases := run[0], run[1:]
		var names []string
		for _, p := range phases {
			names = append(names, p.name)
		}
		if !reflect.DeepEqual(names, assessPhases) {
			t.Fatalf("phases under assessment = %v, want %v", names, assessPhases)
		}
		for i, p := range phases {
			if !p.start.After(outer.start) || !p.end.Before(outer.end) {
				t.Errorf("phase %s [%v, %v] is not inside assessment [%v, %v]", p.name, p.start, p.end, outer.start, outer.end)
			}
			if p.end.Before(p.start) {
				t.Errorf("phase %s ends before it starts", p.name)
			}
			if i > 0 && p.start.Before(phases[i-1].end) {
				t.Errorf("phase %s starts before %s ends", p.name, phases[i-1].name)
			}
		}
	}
}
