package inject_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// poisonPlan returns a copy of the plan whose experiments at the given
// indices flip a far-out-of-range flip-flop — arming the fault indexes
// the machine state with it, so running the experiment panics. This is
// the stand-in for a diverging peripheral model or a corrupt
// hand-written plan entry.
func poisonPlan(plan []inject.Injection, indices ...int) []inject.Injection {
	out := append([]inject.Injection(nil), plan...)
	for _, i := range indices {
		out[i].Fault = faults.FFFlip(netlist.FFID(1 << 20))
	}
	return out
}

// TestCycleBudgetWatchdog: a cycle budget shorter than the workload
// terminates every experiment with the Aborted outcome instead of a
// verdict, deterministically at any worker count, and the report
// declares itself degraded.
func TestCycleBudgetWatchdog(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	tgt := *target
	tgt.Supervision = inject.Supervision{CycleBudget: 3}
	ref := injecttest.Reference(t, &tgt, g.Trace, plan)
	if got := ref.AbortedCount(); got != len(plan) {
		t.Fatalf("AbortedCount = %d, want %d (budget shorter than every injection window)", got, len(plan))
	}
	for _, workers := range []int{1, 2, 8} {
		tgt.Workers = workers
		rep, err := tgt.Run(g, plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, rep) {
			t.Fatalf("workers=%d: watchdog-aborted report differs from the scalar reference", workers)
		}
	}
	// A budget longer than the workload must not disturb anything.
	tgt = *target
	tgt.Supervision = inject.Supervision{CycleBudget: g.Trace.Cycles() + 1}
	rep, err := tgt.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(injecttest.Reference(t, target, g.Trace, plan), rep) {
		t.Fatal("a non-binding cycle budget changed the report")
	}
}

// fakeClock fires the wall watchdog on schedule: the first `calm`
// samples return the epoch, every later one an instant far past any
// budget. A batch samples the clock once for its deadline and then once
// per poll (every 256th trace cycle).
func fakeClock(calm int64) func() time.Time {
	var samples atomic.Int64
	return func() time.Time {
		if samples.Add(1) > calm {
			return time.Unix(1<<30, 0)
		}
		return time.Unix(0, 0)
	}
}

// TestWallBudgetWatchdog: the wall-clock guard reads the injected clock
// inside the batch loop. A clock past the deadline aborts every lane
// still running and leaves the rows of lanes that already retired
// alone; a nil clock disables the guard entirely; while the guard is
// armed, early retirement and the static pre-pass stand down.
func TestWallBudgetWatchdog(t *testing.T) {
	// A trace long enough for a second poll, cut to one 64-wide batch
	// whose injections lie on both sides of it. Row 0 is moved to cycle 0
	// so the batch starts there whatever the snapshot cadence: the polls
	// are at cycles 0 and 256.
	target, g, full := reducedDesign(t, false, 8)
	plan := stride(full, len(full)/64)[:64]
	plan[0].Cycle = 0
	late := 0
	for _, inj := range plan {
		if inj.Cycle >= 264 {
			late++
		}
	}
	if g.Trace.Cycles() < 300 || late == 0 || late == len(plan) {
		t.Fatalf("fixture drifted: %d cycles, %d of %d rows injected past the second poll", g.Trace.Cycles(), late, len(plan))
	}
	run := func(t *testing.T, tgt *inject.Target, g *inject.Golden, plan []inject.Injection, sup inject.Supervision) (*inject.Report, *inject.Target) {
		t.Helper()
		itgt, _, _ := instrumented(tgt)
		itgt.Supervision = sup
		rep, err := itgt.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		return rep, itgt
	}
	counter := func(tgt *inject.Target, name string) int64 { return tgt.Telemetry.Registry.Counter(name).Load() }
	budgetRef := func(budget int) *inject.Report {
		btgt := *target
		btgt.Supervision.CycleBudget = budget
		return injecttest.Reference(t, &btgt, g.Trace, plan)
	}

	t.Run("past the deadline at the first poll", func(t *testing.T) {
		rep, tgt := run(t, target, g, plan, inject.Supervision{WallBudget: time.Second, Clock: fakeClock(1)})
		if got := rep.AbortedCount(); got != len(plan) {
			t.Fatalf("AbortedCount = %d, want %d", got, len(plan))
		}
		if b, c := counter(tgt, "batches"), counter(tgt, "sim_cycles"); b != 1 || c != 0 {
			t.Fatalf("%d batches simulated %d cycles, want one batch aborted before its first cycle", b, c)
		}
	})

	// Every lane is still running at cycle 256 (early retirement is off
	// while the guard is armed), so every row is aborted there — with the
	// partial monitor fields a cycle budget of 256 leaves.
	t.Run("aborts every active lane", func(t *testing.T) {
		rep, tgt := run(t, target, g, plan, inject.Supervision{WallBudget: time.Second, Clock: fakeClock(2)})
		if !reflect.DeepEqual(budgetRef(256), rep) {
			t.Fatal("rows aborted by the wall guard at cycle 256 differ from the reference under a 256-cycle budget")
		}
		if c := counter(tgt, "sim_cycles"); c != 256 {
			t.Fatalf("batch simulated %d cycles, want 256", c)
		}
	})

	// With a 100-cycle budget on a warm golden, lanes retire one by one
	// between cycle 100 and their own warm-start cycle; the guard fires
	// at 256 on the lanes whose warm start lies later. Retired rows keep
	// their partial fields, and the batch stops at 256.
	t.Run("leaves retired lanes alone", func(t *testing.T) {
		wtgt, wg := warmGolden(t, target, g, 8)
		sup := inject.Supervision{CycleBudget: 100, WallBudget: time.Second, Clock: fakeClock(2)}
		rep, tgt := run(t, wtgt, wg, plan, sup)
		if !reflect.DeepEqual(budgetRef(100), rep) {
			t.Fatal("rows differ from the reference under a 100-cycle budget")
		}
		if c := counter(tgt, "sim_cycles"); c != 256 {
			t.Fatalf("batch simulated %d cycles, want 256", c)
		}
		sup.Clock = fakeClock(1 << 30)
		if _, tgt := run(t, wtgt, wg, plan, sup); counter(tgt, "sim_cycles") <= 256 {
			t.Fatal("vacuous: without the wall abort the batch also ends by cycle 256")
		}
	})

	t.Run("nil clock is a no-op", func(t *testing.T) {
		rep, _ := run(t, target, g, plan[:16], inject.Supervision{WallBudget: time.Nanosecond})
		if !reflect.DeepEqual(injecttest.Reference(t, target, g.Trace, plan[:16]), rep) {
			t.Fatal("wall budget with a nil clock changed the report")
		}
	})

	armed := inject.Supervision{WallBudget: time.Hour, Clock: fakeClock(1 << 30)}

	t.Run("armed guard turns collapse off", func(t *testing.T) {
		cplan := collapsiblePlan(g, plan[:32])
		ctgt := *target
		ctgt.Collapse = true
		rep, tgt := run(t, &ctgt, g, cplan, armed)
		if !reflect.DeepEqual(injecttest.Reference(t, target, g.Trace, cplan), rep) {
			t.Fatal("an armed guard that never fires changed the report")
		}
		if p, c := counter(tgt, "faults_static_pruned"), counter(tgt, "faults_collapsed"); p != 0 || c != 0 {
			t.Fatalf("static pre-pass ran under an armed guard (%d pruned, %d collapsed)", p, c)
		}
	})

	// The lockstep CPU has few observation points, so some of its rows
	// pin every monitor early. One row per batch: with the guard armed
	// each of them must still simulate the whole trace.
	t.Run("armed guard turns early exit off", func(t *testing.T) {
		ltgt, lg, lplan := lockstepCampaign(t)
		ltgt.Lanes = 1
		whole := int64(len(lplan) * lg.Trace.Cycles())
		rep, tgt := run(t, ltgt, lg, lplan, armed)
		if !reflect.DeepEqual(injecttest.Reference(t, ltgt, lg.Trace, lplan), rep) {
			t.Fatal("an armed guard that never fires changed the report")
		}
		if got := counter(tgt, "sim_cycles"); got != whole {
			t.Fatalf("simulated %d cycles, want %d (every row to the end of the trace)", got, whole)
		}
		if _, tgt := run(t, ltgt, lg, lplan, inject.Supervision{}); counter(tgt, "sim_cycles") >= whole {
			t.Fatal("vacuous: no row of the fixture retires early with the guard off")
		}
	})
}

// TestFailedBatchRerunsMembersAlone: a batch that panics produces no
// result; every member is run again as a one-lane batch under the retry
// policy and still gets its reference verdict. The instance factory
// fails once inside the 64-wide batch and once more inside one of the
// reruns, which Retries: 1 absorbs.
func TestFailedBatchRerunsMembersAlone(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	ref := injecttest.Reference(t, target, g.Trace, plan)
	tgt, tel, _ := instrumented(target)
	var calls atomic.Int64
	tgt.NewInstance = func() (*sim.Simulator, error) {
		if n := calls.Add(1); n == 5 || n == 8 {
			panic("instance factory: injected failure")
		}
		return target.NewInstance()
	}
	tgt.Supervision = inject.Supervision{Retries: 1}
	rep, err := tgt.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("report after a failed batch differs from the scalar reference")
	}
	// One failed wide batch, one one-lane batch per member, one retry.
	for name, want := range map[string]int64{"batches": int64(len(plan)) + 2, "retries": 1, "exp_done": int64(len(plan))} {
		if got := tel.Registry.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestUnsupportedFaultIsLoud: a hand-written row whose fault the lane
// kernel has no model for fails as itself — quarantined with an error
// naming kind and site, or failing the campaign with the lowest such
// index — while the healthy rows sharing its 64-wide batch keep their
// reference verdicts.
func TestUnsupportedFaultIsLoud(t *testing.T) {
	target, g, base := reducedCampaign(t, true)
	bad := map[int]faults.Fault{
		5: {Kind: faults.SA0, Site: faults.SiteFF},
		9: {Kind: faults.DelayX, Site: faults.SitePin},
	}
	plan := append([]inject.Injection(nil), base...)
	var healthy []inject.Injection
	for i := range plan {
		if f, ok := bad[i]; ok {
			plan[i].Fault = f
		} else {
			healthy = append(healthy, plan[i])
		}
	}
	ref := injecttest.Reference(t, target, g.Trace, healthy)

	tgt := *target
	tgt.Supervision = inject.Supervision{Quarantine: true}
	rep, err := tgt.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Results, rep.Results) || !reflect.DeepEqual(ref.Coverage, rep.Coverage) {
		t.Fatal("healthy rows lost their reference verdicts")
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined %d rows, want 2", len(rep.Quarantined))
	}
	for qi, want := range []struct {
		index      int
		kind, site string
	}{{5, "SA0", "flip-flop"}, {9, "DELAYX", "pin"}} {
		q := rep.Quarantined[qi]
		if q.PlanIndex != want.index || q.Injection != plan[want.index] || q.Attempts != 1 {
			t.Fatalf("quarantine record %d = %+v", qi, q)
		}
		if !strings.Contains(q.Err, want.kind) || !strings.Contains(q.Err, want.site) {
			t.Fatalf("quarantine text %q does not name kind %s and site %s", q.Err, want.kind, want.site)
		}
	}

	for _, workers := range []int{1, 8} {
		tgt := *target
		tgt.Workers = workers
		_, err := tgt.Run(g, plan)
		var ee *inject.ExperimentError
		if !errors.As(err, &ee) || ee.PlanIndex != 5 {
			t.Fatalf("workers=%d: got %v, want *ExperimentError for plan index 5", workers, err)
		}
		var ue *inject.UnsupportedFaultError
		if !errors.As(err, &ue) || ue.Kind != faults.SA0 || ue.Site != faults.SiteFF {
			t.Fatalf("workers=%d: %v does not unwrap to the unsupported fault", workers, err)
		}
	}
}

// TestPanicQuarantine: worker panics are recovered, retried the
// configured number of times and quarantined — exactly the poisoned
// indices, with the campaign completing around them.
func TestPanicQuarantine(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	poisoned := poisonPlan(plan, 3, 7)
	for _, workers := range []int{1, 8} {
		tgt := *target
		tgt.Workers = workers
		tgt.Supervision = inject.Supervision{Quarantine: true, Retries: 2}
		rep, err := tgt.Run(g, poisoned)
		if err != nil {
			t.Fatalf("workers=%d: quarantine run failed: %v", workers, err)
		}
		if len(rep.Quarantined) != 2 {
			t.Fatalf("workers=%d: quarantined %d experiments, want 2", workers, len(rep.Quarantined))
		}
		for qi, want := range []int{3, 7} {
			q := rep.Quarantined[qi]
			if q.PlanIndex != want {
				t.Fatalf("workers=%d: quarantined plan index %d, want %d", workers, q.PlanIndex, want)
			}
			if q.Injection != poisoned[want] {
				t.Fatalf("workers=%d: quarantine record carries the wrong injection", workers)
			}
			if q.Attempts != 3 {
				t.Fatalf("workers=%d: attempts = %d, want 3 (1 + 2 retries)", workers, q.Attempts)
			}
			if q.Err == "" {
				t.Fatalf("workers=%d: quarantine record lost the error", workers)
			}
		}
		if len(rep.Results) != len(plan)-2 {
			t.Fatalf("workers=%d: campaign kept %d results, want %d", workers, len(rep.Results), len(plan)-2)
		}
	}
}

// TestQuarantineConservativeAccounting: quarantined rows stay in the
// zone measures — counted as experiments without a verdict, pulling
// both measured fractions down (the λDU-conservative bound) and
// flagging the worksheet cross-check row.
func TestQuarantineConservativeAccounting(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	poisoned := poisonPlan(plan, 0)
	tgt := *target
	tgt.Supervision = inject.Supervision{Quarantine: true}
	rep, err := tgt.Run(g, poisoned)
	if err != nil {
		t.Fatal(err)
	}
	zone := poisoned[0].Zone
	total := 0
	for _, zm := range rep.ZoneMeasures(target.Analysis) {
		total += zm.Experiments
		if zm.Zone != zone {
			continue
		}
		if zm.Quarantined != 1 {
			t.Fatalf("zone %d shows %d quarantined, want 1", zone, zm.Quarantined)
		}
		if zm.DDFMeasured() == 1 && zm.DangerDet == 0 {
			t.Fatal("quarantined row vanished from the DDF denominator")
		}
	}
	if total != len(poisoned) {
		t.Fatalf("zone measures account for %d experiments, want %d (quarantined rows included)", total, len(poisoned))
	}
}

// TestExperimentErrorTyped: with quarantine off the campaign fails fast
// with a typed *ExperimentError reachable through errors.As even after
// wrapping, carrying the plan index, injection and underlying panic;
// under parallelism the lowest failing plan index wins.
func TestExperimentErrorTyped(t *testing.T) {
	target, g, plan := reducedCampaign(t, false)
	poisoned := poisonPlan(plan, 3, 7)
	for _, workers := range []int{1, 8} {
		tgt := *target
		tgt.Workers = workers
		_, err := tgt.Run(g, poisoned)
		if err == nil {
			t.Fatalf("workers=%d: poisoned campaign succeeded", workers)
		}
		wrapped := fmt.Errorf("campaign: %w", err)
		var ee *inject.ExperimentError
		if !errors.As(wrapped, &ee) {
			t.Fatalf("workers=%d: error %v is not an *ExperimentError", workers, err)
		}
		if ee.PlanIndex != 3 {
			t.Fatalf("workers=%d: failing plan index %d, want 3 (lowest index wins)", workers, ee.PlanIndex)
		}
		if ee.Injection != poisoned[3] {
			t.Fatalf("workers=%d: ExperimentError carries the wrong injection", workers)
		}
		if ee.Attempts != 1 {
			t.Fatalf("workers=%d: attempts = %d, want 1 (no retries configured)", workers, ee.Attempts)
		}
		if ee.Unwrap() == nil {
			t.Fatalf("workers=%d: ExperimentError must unwrap to the recovered panic", workers)
		}
	}
}

// TestRetriesExhaustPersistentFailure: a deterministic panic fails all
// 1+N attempts, and the attempt count is reported faithfully.
func TestRetriesExhaustPersistentFailure(t *testing.T) {
	target, g, plan := reducedCampaign(t, false)
	poisoned := poisonPlan(plan, 0)
	tgt := *target
	tgt.Supervision = inject.Supervision{Retries: 4}
	_, err := tgt.Run(g, poisoned[:1])
	var ee *inject.ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("got %v, want *ExperimentError", err)
	}
	if ee.Attempts != 5 {
		t.Fatalf("attempts = %d, want 5 (1 + 4 retries)", ee.Attempts)
	}
}
