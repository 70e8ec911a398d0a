package inject_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/memsys"
)

// reducedDesign builds a 64-word variant of the case-study design and
// its OP-guided plan over a validation workload of the given March
// slice size.
func reducedDesign(t testing.TB, v2 bool, words int) (*inject.Target, *inject.Golden, []inject.Injection) {
	t.Helper()
	cfg := memsys.V1Config()
	if v2 {
		cfg = memsys.V2Config()
	}
	cfg.AddrWidth = 6
	d, err := memsys.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	target := d.InjectionTargetSeeded(a, d.SeedFaults())
	g, err := target.RunGolden(d.ValidationWorkload(words, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 5})
	plan = append(plan, inject.WidePlan(a, g, 4, 6)...)
	return target, g, plan
}

// reducedCampaign stride-samples the reduced design's plan — enough
// experiments to populate every coverage array and span many zones and
// all three experiment classes while keeping the race-enabled run fast.
func reducedCampaign(t testing.TB, v2 bool) (*inject.Target, *inject.Golden, []inject.Injection) {
	t.Helper()
	target, g, plan := reducedDesign(t, v2, 2)
	return target, g, stride(plan, 3)
}

// stride keeps every n-th plan row.
func stride(plan []inject.Injection, n int) []inject.Injection {
	var sampled []inject.Injection
	for i := 0; i < len(plan); i += n {
		sampled = append(sampled, plan[i])
	}
	return sampled
}

// TestRunParallelDeterministic: the sharded campaign runner must
// produce a byte-identical report — same per-experiment order,
// outcomes, deviation lists and coverage items — as the scalar
// reference, for any worker count, on both implementations of the case
// study.
func TestRunParallelDeterministic(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			target, g, plan := reducedCampaign(t, v2)
			serial := injecttest.Reference(t, target, g.Trace, plan)
			for _, workers := range []int{1, 2, 8} {
				par, err := target.RunParallel(g, plan, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("workers=%d: parallel report differs from the scalar reference", workers)
				}
				// Belt and braces: the rendered representation must be
				// byte-identical too.
				if fmt.Sprintf("%#v", par) != fmt.Sprintf("%#v", serial) {
					t.Fatalf("workers=%d: rendered report differs from the scalar reference", workers)
				}
			}
		})
	}
}

// TestTargetWorkersOption: Run honors Target.Workers and still matches
// the scalar reference.
func TestTargetWorkersOption(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	serial := injecttest.Reference(t, target, g.Trace, plan)
	target.Workers = 4
	par, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("Run with Workers=4 differs from the scalar reference")
	}
}
