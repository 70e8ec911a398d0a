package inject_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// collapsiblePlan extends the reduced campaign plan with rows the
// static pre-pass is guaranteed to handle: exact duplicates (collapse
// onto the first occurrence) and an injection past the end of the
// trace (statically Silent). The extra rows keep the matrix test
// non-vacuous without depending on the planner's fault mix.
func collapsiblePlan(g *inject.Golden, plan []inject.Injection) []inject.Injection {
	out := append([]inject.Injection(nil), plan...)
	// Duplicate a handful of rows verbatim — identical (zone, cycle,
	// duration, fault) rows are campaign-exact equivalents by
	// definition, so the pre-pass must fold them.
	for i := 0; i < len(plan) && i < 4; i++ {
		out = append(out, plan[i])
	}
	// A fault injected at/after the last trace cycle never applies.
	if len(plan) > 0 {
		late := plan[0]
		late.Cycle = g.Trace.Cycles() + 3
		out = append(out, late)
	}
	return out
}

// TestCollapseTelemetryNonVacuity pins the new counters: the pre-pass
// must actually prune and collapse on the extended plan (which carries
// guaranteed duplicates and one past-the-trace row), the inherited
// fill must run, and the journal must still emit one exp_finish per
// *simulated* row — static and inherited rows are out-of-band.
func TestCollapseTelemetryNonVacuity(t *testing.T) {
	target, g, base := reducedCampaign(t, true)
	plan := collapsiblePlan(g, base)
	ref := injecttest.Reference(t, target, g.Trace, plan)
	tgt, tel, journal := instrumented(target)
	tgt.Collapse = true
	tgt.Workers = 4
	rep, err := tgt.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("instrumented collapsed report differs from reference")
	}
	pruned := tel.Registry.Counter("faults_static_pruned").Load()
	collapsed := tel.Registry.Counter("faults_collapsed").Load()
	inherited := tel.Registry.Counter("outcomes_inherited").Load()
	if pruned == 0 {
		t.Fatal("faults_static_pruned is 0 — the past-the-trace row was not statically classified")
	}
	if collapsed == 0 {
		t.Fatal("faults_collapsed is 0 — the duplicated rows were not folded")
	}
	if inherited == 0 {
		t.Fatal("outcomes_inherited is 0 — the expansion fill never ran")
	}
	if inherited > collapsed {
		t.Fatalf("inherited %d rows but only %d were collapsed", inherited, collapsed)
	}
	if err := tel.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	finishes := strings.Count(journal.String(), `"ev":"exp_finish"`)
	simulated := len(plan) - int(pruned) - int(inherited)
	if finishes != simulated {
		t.Fatalf("journal has %d exp_finish events, want %d (plan %d - pruned %d - inherited %d)",
			finishes, simulated, len(plan), pruned, inherited)
	}
	if done := tel.Registry.Counter("exp_done").Load(); done != int64(len(plan)) {
		t.Fatalf("exp_done is %d, want %d — static/inherited rows must still count as done", done, len(plan))
	}
}

// TestCollapseRangeBoundaryInsideClass places a range boundary inside a
// known equivalence class: the plan ends in three verbatim copies of
// row 0, and the range holds only the copies, so the class
// representative lies outside it. The first copy must stand in —
// simulated once, on a lane — and the other two inherit from it; the
// bytes must be the reference rows.
func TestCollapseRangeBoundaryInsideClass(t *testing.T) {
	target, g, base := reducedCampaign(t, true)
	plan := append(append([]inject.Injection(nil), base...), base[0], base[0], base[0])
	ref := injecttest.Reference(t, target, g.Trace, plan)
	lo, hi := len(base), len(plan)
	want := inject.EncodeCheckpoint(serialRows(ref, lo, hi), plan)
	for _, lanes := range []int{1, 64} {
		tgt, tel, _ := instrumented(target)
		tgt.Collapse = true
		tgt.Lanes = lanes
		ck, err := tgt.RunRange(g, plan, 2, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got := inject.EncodeCheckpoint(ck, plan); !bytes.Equal(got, want) {
			t.Fatalf("lanes=%d: range inside the class differs from the reference rows", lanes)
		}
		for name, want := range map[string]int64{
			"faults_collapsed": 3, "exp_started": 1, "outcomes_inherited": 2, "batches": 1,
		} {
			if got := tel.Registry.Counter(name).Load(); got != want {
				t.Errorf("lanes=%d: %s = %d, want %d", lanes, name, got, want)
			}
		}
	}
}

// TestCollapsePropertyRandomCircuits compares collapsed campaign
// reports with the scalar reference over random circuits, with the planner's fault mix
// extended by hand-written pin stuck-ats (exercising the unconditional
// pin-to-output equivalence rules), a released stuck-at, bridging
// faults (never collapsed, only deduplicated) and exact duplicates.
func TestCollapsePropertyRandomCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		n := randckt.Generate(randckt.Default(), seed)
		a, err := zones.Extract(n, zones.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		target := &inject.Target{
			Analysis:    a,
			NewInstance: func() (*sim.Simulator, error) { return sim.New(n) },
		}
		tr := workload.Random(xrand.New(seed+300), []string{"in"}, map[string]int{"in": 6}, 30)
		g, err := target.RunGolden(tr)
		if err != nil {
			t.Fatal(err)
		}
		plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 2, Seed: seed})
		plan = append(plan, inject.WidePlan(a, g, 3, seed)...)
		if len(plan) == 0 {
			continue
		}
		g0, g1 := n.Gates[0], n.Gates[len(n.Gates)/2]
		plan = append(plan,
			// A pin stuck-at and the matching output stuck-at at the same
			// cycle: campaign-exact equivalents through PinAtom.
			inject.Injection{Zone: 0, Fault: faults.PinSA(g0.ID, 0, true), Cycle: 2, Mode: "pin"},
			inject.Injection{Zone: 0, Fault: faults.PinSA(g1.ID, len(g1.Inputs)-1, false), Cycle: 9, Duration: 5, Mode: "pin"},
			inject.Injection{Zone: 0, Fault: faults.NetBridge(g0.Output, g1.Output, true), Cycle: 4, Mode: "bridge"},
			inject.Injection{Zone: 0, Fault: faults.NetBridge(g1.Output, g0.Output, false), Cycle: 6, Duration: 8, Mode: "bridge"},
			inject.Injection{Zone: 0, Fault: faults.NetSA(g1.Output, true), Cycle: 3, Duration: 4, Mode: "released"},
		)
		plan = collapsiblePlan(g, plan)
		serial := injecttest.Reference(t, target, tr, plan)
		for _, lanes := range []int{1, 64} {
			ctgt := *target
			ctgt.Collapse = true
			ctgt.Lanes = lanes
			collapsed, err := ctgt.Run(g, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, collapsed) {
				t.Fatalf("seed %d lanes %d: collapsed verdicts differ from the scalar reference", seed, lanes)
			}
		}
	}
}
