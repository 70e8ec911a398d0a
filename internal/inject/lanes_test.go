package inject_test

import (
	"fmt"
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

// TestLanesPropertyRandomCircuits compares the 64-lane campaign with
// the scalar reference over random circuits, with the planner's fault
// mix extended by hand-written pin stuck-ats, bridging faults and a
// released (Duration > 0) stuck-at — the fault models BuildPlan never
// emits, so the lane arming/removal paths for every batchable kind are
// exercised.
func TestLanesPropertyRandomCircuits(t *testing.T) {
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
			inject.Injection{Zone: 0, Fault: faults.PinSA(g0.ID, 0, true), Cycle: 2, Mode: "pin"},
			inject.Injection{Zone: 0, Fault: faults.PinSA(g1.ID, len(g1.Inputs)-1, false), Cycle: 9, Duration: 5, Mode: "pin"},
			inject.Injection{Zone: 0, Fault: faults.NetBridge(g0.Output, g1.Output, true), Cycle: 4, Mode: "bridge"},
			inject.Injection{Zone: 0, Fault: faults.NetBridge(g1.Output, g0.Output, false), Cycle: 6, Duration: 8, Mode: "bridge"},
			inject.Injection{Zone: 0, Fault: faults.NetSA(g1.Output, true), Cycle: 3, Duration: 4, Mode: "released"},
		)
		ref := injecttest.Reference(t, target, tr, plan)
		wtgt, wg := warmGolden(t, target, g, 7)
		wtgt.Lanes = 64
		laned, err := wtgt.Run(wg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, laned) {
			t.Fatalf("seed %d: 64-lane verdicts differ from the scalar reference", seed)
		}
	}
}

// TestLanesTelemetryNeutrality pins the batch counters: with the full
// telemetry stack attached the report stays byte-identical, the journal
// carries one exp_finish per plan row, and the batch counters actually
// observed the lane scheduler.
func TestLanesTelemetryNeutrality(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	ref := injecttest.Reference(t, target, g.Trace, plan)
	wtgt, wg := warmGolden(t, target, g, 8)
	tgt, tel, journal := instrumented(wtgt)
	tgt.Lanes = 16
	tgt.Workers = 8
	rep, err := tgt.Run(wg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("instrumented lane-batched report differs from reference")
	}
	if fmt.Sprintf("%#v", rep) != fmt.Sprintf("%#v", ref) {
		t.Fatal("instrumented lane-batched report renders differently")
	}
	if err := tel.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(journal.String(), `"ev":"exp_finish"`); n != len(plan) {
		t.Fatalf("journal has %d exp_finish events, want %d", n, len(plan))
	}
	batches := tel.Registry.Counter("batches").Load()
	if batches == 0 {
		t.Fatal("batches counter never incremented — the lane scheduler did not run")
	}
	occ := tel.Registry.Histogram("lane_occupancy")
	if occ.Count() != batches {
		t.Fatalf("lane_occupancy has %d observations, want %d (one per batch)", occ.Count(), batches)
	}
	if occ.Sum() < batches {
		t.Fatalf("lane_occupancy sum %d implausibly low for %d batches", occ.Sum(), batches)
	}
	if live := tel.Registry.Gauge("lanes_active").Load(); live != 0 {
		t.Fatalf("lanes_active gauge is %d after the campaign, want 0", live)
	}
}
