package inject_test

import (
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/injecttest"
)

// TestQuarantineWithLanesAndCollapse: a panicking fault inside a
// 64-lane batch must cost only its own row — the other experiments
// packed into the same machine word keep the verdicts of the scalar
// reference — and the quarantine records must name the poisoned rows,
// with and without the static collapse pre-pass, at any worker count.
func TestQuarantineWithLanesAndCollapse(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	// Poison two rows that land in the same 64-lane batch (3 and 7)
	// plus one further out, so both intra-batch isolation and
	// cross-batch scheduling are exercised.
	poison := []int{3, 7, len(plan) - 2}
	poisoned := poisonPlan(plan, poison...)

	// The reference covers the healthy rows: the poisoned ones panic on
	// any engine and carry no verdict.
	healthy := append([]inject.Injection(nil), plan...)
	for k := len(poison) - 1; k >= 0; k-- {
		healthy = append(healthy[:poison[k]], healthy[poison[k]+1:]...)
	}
	want := injecttest.Reference(t, target, g.Trace, healthy)

	for _, tc := range []struct {
		name     string
		lanes    int
		collapse bool
		workers  int
	}{
		{"lanes64", 64, false, 1},
		{"lanes64-collapse", 64, true, 1},
		{"lanes64-collapse-workers8", 64, true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt := *target
			tgt.Lanes = tc.lanes
			tgt.Collapse = tc.collapse
			tgt.Workers = tc.workers
			tgt.Supervision = inject.Supervision{Quarantine: true, Retries: 2}
			rep, err := tgt.Run(g, poisoned)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Quarantined) != len(poison) {
				t.Fatalf("quarantined %d rows, want %d", len(rep.Quarantined), len(poison))
			}
			for qi, pi := range poison {
				q := rep.Quarantined[qi]
				if q.PlanIndex != pi || q.Injection != poisoned[pi] {
					t.Fatalf("quarantine record %d names plan index %d, want %d", qi, q.PlanIndex, pi)
				}
				if q.Attempts != 3 {
					t.Fatalf("quarantine record %d: attempts = %d, want 3 (1 + 2 retries)", qi, q.Attempts)
				}
			}
			// Every non-poisoned row keeps its reference verdict: the
			// poisoned row is removed, not the 64-wide batch around it.
			if !reflect.DeepEqual(want.Results, rep.Results) || !reflect.DeepEqual(want.Coverage, rep.Coverage) {
				t.Fatal("healthy rows differ from the scalar reference")
			}
		})
	}
}
