package inject_test

import (
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// warmGolden re-runs the golden simulation with a snapshot cadence.
// The golden run is deterministic, so the traces match the cold golden
// exactly; only the snapshots differ.
func warmGolden(t *testing.T, target *inject.Target, g *inject.Golden, every int) (*inject.Target, *inject.Golden) {
	t.Helper()
	tgt := *target
	tgt.SnapshotEvery = every
	gw, err := tgt.RunGolden(g.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return &tgt, gw
}

// TestWarmStartPropertyRandomCircuits compares the warm-started
// campaign with the cold scalar reference over random circuits —
// designs with no peripherals and arbitrary zone structure — with a
// snapshot cadence that does not divide the trace length.
func TestWarmStartPropertyRandomCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		n := randckt.Generate(randckt.Default(), seed)
		a, err := zones.Extract(n, zones.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		target := &inject.Target{
			Analysis:    a,
			NewInstance: func() (*sim.Simulator, error) { return sim.New(n) },
		}
		tr := workload.Random(xrand.New(seed+200), []string{"in"}, map[string]int{"in": 6}, 30)
		g, err := target.RunGolden(tr)
		if err != nil {
			t.Fatal(err)
		}
		plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: seed})
		plan = append(plan, inject.WidePlan(a, g, 3, seed)...)
		if len(plan) == 0 {
			continue
		}
		cold := injecttest.Reference(t, target, tr, plan)
		wtgt, wg := warmGolden(t, target, g, 7)
		warm, err := wtgt.Run(wg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("seed %d: warm verdicts differ from cold", seed)
		}
	}
}

// TestWarmStartSimulatesFewerCycles guards the matrix against vacuity:
// if snapshots were silently never captured (or never restored), the
// neutrality tests would still pass while the optimization did nothing.
// Telemetry counts cycles actually simulated, so warm < cold proves the
// prefix was really skipped. One row per batch: a wider batch starts at
// the snapshot of its earliest injection, and the whole reduced plan
// fits in one.
func TestWarmStartSimulatesFewerCycles(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	coldTgt, coldTel, _ := instrumented(target)
	coldTgt.Lanes = 1
	if _, err := coldTgt.Run(g, plan); err != nil {
		t.Fatal(err)
	}
	wtgt, wg := warmGolden(t, target, g, 8)
	warmTgt, warmTel, _ := instrumented(wtgt)
	warmTgt.Lanes = 1
	if _, err := warmTgt.Run(wg, plan); err != nil {
		t.Fatal(err)
	}
	cold, warm := coldTel.Snapshot().SimCycles, warmTel.Snapshot().SimCycles
	if warm >= cold {
		t.Fatalf("warm start simulated %d cycles, cold %d — no cycles skipped", warm, cold)
	}
	t.Logf("simulated cycles: cold=%d warm=%d (%.2fx)", cold, warm, float64(cold)/float64(warm))
}
