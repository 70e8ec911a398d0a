package inject

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fit"
	"repro/internal/fmea"
	"repro/internal/iec61508"
	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// protNaked builds a DUT with one parity-protected register (alarm) and
// one naked register: flips in the protected one are detected dangerous,
// flips in the naked one are undetected dangerous.
func protNaked(t testing.TB) (*zones.Analysis, *Target) {
	m := rtl.NewModule("pn")
	d := m.Input("d", 4)
	// Protected path: register plus stored parity bit, checked on output.
	rp := m.RegNext("r_prot", d, 0)
	pp := m.RegNext("r_par", rtl.Bus{m.Parity(d)}, 0)
	alarm := m.XorBit(m.Parity(rp), pp[0])
	m.Output("out_p", rp)
	m.Output("alarm_par", rtl.Bus{alarm})
	// Naked path.
	rn := m.RegNext("r_naked", d, 0)
	m.Output("out_n", rn)
	n := m.MustFinish()
	a, err := zones.Extract(n, zones.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	target := &Target{
		Analysis: a,
		NewInstance: func() (*sim.Simulator, error) {
			return sim.New(n)
		},
	}
	return a, target
}

func testTrace() *workload.Trace {
	tr := workload.NewTrace("d")
	rng := xrand.New(9)
	for c := 0; c < 24; c++ {
		tr.Add(map[string]uint64{"d": rng.Bits(4)})
	}
	return tr
}

func TestGoldenRunAndProfile(t *testing.T) {
	a, target := protNaked(t)
	g, err := target.RunGolden(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	if ok, inactive := g.CompletenessOK(); !ok {
		names := []string{}
		for _, zi := range inactive {
			names = append(names, a.Zones[zi].Name)
		}
		t.Errorf("random workload left zones inactive: %v", names)
	}
	// Activity lists must be within the trace horizon and ordered.
	for zi, act := range g.Activity {
		last := -1
		for _, c := range act {
			if c <= last || c >= g.Trace.Cycles() {
				t.Fatalf("zone %d activity malformed: %v", zi, act)
			}
			last = c
		}
	}
}

func TestPlanDeterministicAndComplete(t *testing.T) {
	a, target := protNaked(t)
	g, _ := target.RunGolden(testTrace())
	cfg := DefaultPlanConfig()
	p1 := BuildPlan(a, g, cfg)
	p2 := BuildPlan(a, g, cfg)
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("plan sizes: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("plan not deterministic")
		}
	}
	// Every non-skipped zone gets experiments.
	seen := map[int]bool{}
	for _, inj := range p1 {
		seen[inj.Zone] = true
		if inj.Cycle < 0 || inj.Cycle >= g.Trace.Cycles() {
			t.Fatalf("injection cycle out of range: %+v", inj)
		}
	}
	for zi := range a.Zones {
		if !seen[zi] {
			t.Errorf("zone %q has no experiments", a.Zones[zi].Name)
		}
	}
	// SkipZones honored.
	cfg.SkipZones = map[string]bool{"r_naked": true}
	p3 := BuildPlan(a, g, cfg)
	for _, inj := range p3 {
		if a.Zones[inj.Zone].Name == "r_naked" {
			t.Error("skipped zone still planned")
		}
	}
}

func TestCampaignOutcomes(t *testing.T) {
	a, target := protNaked(t)
	g, _ := target.RunGolden(testTrace())
	zp, _ := a.ZoneByName("r_prot")
	zn, _ := a.ZoneByName("r_naked")
	plan := []Injection{
		{Zone: zp.ID, Fault: faults.FFFlip(zp.FFs[1]), Cycle: 5, Mode: "flip"},
		{Zone: zn.ID, Fault: faults.FFFlip(zn.FFs[2]), Cycle: 5, Mode: "flip"},
	}
	rep, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Outcome != DangerousDetected {
		t.Errorf("protected flip outcome = %v, want dangerous-detected", rep.Results[0].Outcome)
	}
	if rep.Results[1].Outcome != DangerousUndetected {
		t.Errorf("naked flip outcome = %v, want dangerous-undetected", rep.Results[1].Outcome)
	}
	if !rep.Results[0].Sens || !rep.Results[1].Sens {
		t.Error("SENS monitors missed direct state flips")
	}
	if rep.Results[0].FirstDevCycle < 5 {
		t.Errorf("deviation before injection: cycle %d", rep.Results[0].FirstDevCycle)
	}
	if Silent.String() == "" || DangerousDetected.String() == "" {
		t.Error("outcome strings empty")
	}
}

func TestSilentOutcome(t *testing.T) {
	// Stuck-at the value the net would carry anyway at the end of the
	// trace: drive d=0 forever, stuck-0 on naked register output.
	a, target := protNaked(t)
	tr := workload.NewTrace("d")
	for c := 0; c < 10; c++ {
		tr.Add(map[string]uint64{"d": 0})
	}
	g, _ := target.RunGolden(tr)
	zn, _ := a.ZoneByName("r_naked")
	plan := []Injection{{
		Zone: zn.ID, Fault: faults.NetSA(a.N.FFs[zn.FFs[0]].Q, false), Cycle: 2,
		Mode: "stuck matching value",
	}}
	rep, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Outcome != Silent {
		t.Errorf("outcome = %v, want silent", rep.Results[0].Outcome)
	}
	if rep.Results[0].Sens {
		t.Error("SENS triggered by a no-effect stuck")
	}
}

func TestFullCampaignCoverageAndMeasures(t *testing.T) {
	a, target := protNaked(t)
	g, _ := target.RunGolden(testTrace())
	cfg := DefaultPlanConfig()
	cfg.TransientPerZone = 6
	cfg.PermanentPerZone = 3
	plan := BuildPlan(a, g, cfg)
	rep, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	cov := rep.Coverage
	if cov.SensFrac() < 0.8 {
		t.Errorf("SENS coverage = %v", cov.SensFrac())
	}
	if cov.ObseFrac() != 1 {
		t.Errorf("OBSE coverage = %v", cov.ObseFrac())
	}
	if cov.DiagFrac() != 1 {
		t.Errorf("DIAG coverage = %v", cov.DiagFrac())
	}
	if cov.Mismatches == 0 {
		t.Error("no mismatches recorded")
	}

	// Zone measures: protected register must have higher DDF than naked.
	var prot, naked ZoneMeasure
	for _, zm := range rep.ZoneMeasures(a) {
		switch zm.Name {
		case "r_prot":
			prot = zm
		case "r_naked":
			naked = zm
		}
	}
	if prot.Experiments == 0 || naked.Experiments == 0 {
		t.Fatal("zone measures missing")
	}
	if prot.DDFMeasured() <= naked.DDFMeasured() {
		t.Errorf("DDF: prot %v <= naked %v", prot.DDFMeasured(), naked.DDFMeasured())
	}

	// Effect tables consistent with static reachability.
	for _, ec := range rep.CheckEffects(a) {
		if !ec.Consistent {
			t.Errorf("zone %q observed unpredicted effects %v", ec.Name, ec.Unpredicted)
		}
	}
}

func TestValidateWorksheet(t *testing.T) {
	a, target := protNaked(t)
	g, _ := target.RunGolden(testTrace())
	cfg := DefaultPlanConfig()
	cfg.TransientPerZone = 8
	plan := BuildPlan(a, g, cfg)
	rep, _ := target.Run(g, plan)

	zp, _ := a.ZoneByName("r_prot")
	zn, _ := a.ZoneByName("r_naked")
	w := fmea.New("pn")
	// Honest estimates: protected zone fully detected, naked zone not.
	meas := rep.ZoneMeasures(a)
	var measS = map[int]float64{}
	for _, zm := range meas {
		measS[zm.Zone] = zm.SMeasured()
	}
	w.AddRow(zp.ID, "r_prot", fmea.Spec{
		Mode: iec61508.FMTransient, Lambda: fit.Contribution{Transient: 100},
		S: measS[zp.ID], Freq: fmea.F1, Lifetime: 1,
		DDF:    fmea.DDF{HWTransient: 0.99, HWPermanent: 0.99},
		TechHW: iec61508.TechRedundantChecker,
	})
	w.AddRow(zn.ID, "r_naked", fmea.Spec{
		Mode: iec61508.FMTransient, Lambda: fit.Contribution{Transient: 100},
		S: measS[zn.ID], Freq: fmea.F1, Lifetime: 1,
	})
	rows := rep.ValidateWorksheet(a, w, 0.15)
	if len(rows) < 2 {
		t.Fatalf("validation rows = %d", len(rows))
	}
	for _, row := range rows {
		switch row.Name {
		case "r_prot", "r_naked":
			if !row.Within {
				t.Errorf("zone %s failed validation: est S %.2f meas %.2f, est DDF %.2f meas %.2f",
					row.Name, row.EstS, row.MeasS, row.EstDDF, row.MeasDDF)
			}
		}
	}
	if PassFraction(rows) == 0 {
		t.Error("no validation rows passed")
	}
	if PassFraction(nil) != 1 {
		t.Error("empty validation should pass")
	}
}

func TestWidePlanTargetsSharedGates(t *testing.T) {
	// Shared-cone design so wide candidates exist.
	m := rtl.NewModule("wide")
	x := m.Input("x", 4)
	y := m.Input("y", 4)
	sum, _ := m.Add(x, y)
	r1 := m.RegNext("r1", sum, 0)
	r2 := m.RegNext("r2", sum, 0)
	m.Output("o1", r1)
	m.Output("o2", r2)
	n := m.MustFinish()
	a, _ := zones.Extract(n, zones.DefaultConfig())
	target := &Target{Analysis: a, NewInstance: func() (*sim.Simulator, error) { return sim.New(n) }}
	tr := workload.Random(xrand.New(3), []string{"x", "y"}, map[string]int{"x": 4, "y": 4}, 16)
	g, _ := target.RunGolden(tr)
	plan := WidePlan(a, g, 5, 7)
	if len(plan) != 10 { // both stuck-at polarities per selected site
		t.Fatalf("wide plan size = %d, want 10", len(plan))
	}
	for _, inj := range plan {
		if inj.Mode != "wide stuck-at" && inj.Mode != "global stuck-at" {
			t.Errorf("unexpected mode %q", inj.Mode)
		}
	}
	// Wide faults must be able to deviate both outputs in one experiment.
	rep, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	for _, res := range rep.Results {
		funcCount := 0
		for _, oi := range res.Deviated {
			if a.Obs[oi].Kind == zones.Functional {
				funcCount++
			}
		}
		if funcCount >= 2 {
			multi = true
		}
	}
	if !multi {
		t.Error("no wide fault produced multiple failures (Fig. 2)")
	}
}

func TestRecordVCD(t *testing.T) {
	a, target := protNaked(t)
	g, _ := target.RunGolden(testTrace())
	var golden, faulty bytes.Buffer
	if err := target.RecordVCD(g, nil, &golden); err != nil {
		t.Fatal(err)
	}
	zp, _ := a.ZoneByName("r_prot")
	inj := Injection{Zone: zp.ID, Fault: faults.FFFlip(zp.FFs[0]), Cycle: 4, Mode: "flip"}
	if err := target.RecordVCD(g, &inj, &faulty); err != nil {
		t.Fatal(err)
	}
	gs, fs := golden.String(), faulty.String()
	if !strings.Contains(gs, "$enddefinitions") || !strings.Contains(fs, "$enddefinitions") {
		t.Fatal("malformed VCD output")
	}
	if gs == fs {
		t.Error("faulty waveform identical to golden despite injection")
	}
}

// TestAdjustedToggle checks that nets feeding only diagnostic alarms
// leave the toggle-eligible set, while untoggled functional nets still
// count against coverage.
func TestAdjustedToggle(t *testing.T) {
	m := rtl.NewModule("adj")
	a := m.Input("a", 1)
	b := m.Input("b", 1)
	y := m.And(a, b)
	alarm := m.Xor(a, b)
	m.Output("y", y)
	m.Output("alarm", alarm)
	an, err := zones.Extract(m.MustFinish(), zones.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tg := &Target{Analysis: an}
	for _, tc := range []struct {
		name     string
		rep      ToggleReport
		wantCov  float64
		wantExcl int
	}{
		{"diagnostic-only untoggled", ToggleReport{Covered: 3, Eligible: 4, Untoggled: []netlist.NetID{alarm[0]}}, 1, 1},
		{"functional untoggled", ToggleReport{Covered: 3, Eligible: 4, Untoggled: []netlist.NetID{y[0]}}, 0.75, 0},
		{"nothing eligible", ToggleReport{Covered: 0, Eligible: 1, Untoggled: []netlist.NetID{alarm[0]}}, 1, 1},
	} {
		cov, excl := tg.AdjustedToggle(tc.rep)
		if cov != tc.wantCov || excl != tc.wantExcl {
			t.Errorf("%s: AdjustedToggle = %v, %d excluded; want %v, %d", tc.name, cov, excl, tc.wantCov, tc.wantExcl)
		}
	}
}
