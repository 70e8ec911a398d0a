package inject_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frcpu"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/telemetry"
)

// instrumented attaches a full telemetry stack — journal into a buffer
// (clockless, so the test itself stays deterministic), metrics registry,
// progress snapshots — to a copy of the target.
func instrumented(target *inject.Target) (*inject.Target, *telemetry.Campaign, *bytes.Buffer) {
	var buf bytes.Buffer
	tel := telemetry.NewCampaign(telemetry.NewJournal(&buf, nil), nil)
	tgt := *target
	tgt.Telemetry = tel
	return &tgt, tel, &buf
}

// lockstepCampaign is the third case study of the matrix: the lockstep
// fault-robust CPU, whose comparator-heavy netlist and duplicated cores
// exercise cones and equivalence classes a memory datapath never
// produces.
func lockstepCampaign(t testing.TB) (*inject.Target, *inject.Golden, []inject.Injection) {
	t.Helper()
	d, err := frcpu.Build(frcpu.LockstepConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	target := d.InjectionTarget(a)
	g, err := target.RunGolden(d.Workload(120))
	if err != nil {
		t.Fatal(err)
	}
	plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 3})
	return target, g, stride(plan, 3)
}

// knobs is one point of the engine's knob vector: everything a caller
// can set that must not change a report byte.
type knobs struct {
	width    int  // Target.Lanes
	workers  int  // Target.Workers
	snap     int  // Target.SnapshotEvery of the golden the campaign runs on
	collapse bool // Target.Collapse
	tel      bool // full telemetry stack attached
}

func (k knobs) String() string {
	return fmt.Sprintf("width=%d/workers=%d/snap=%d/collapse=%t/tel=%t", k.width, k.workers, k.snap, k.collapse, k.tel)
}

// matrixEnv is one case study made ready for every cell: the plan (with
// rows the static pre-pass is guaranteed to fold, so collapse cells are
// never vacuous), a cold and a warm golden, and the scalar references.
type matrixEnv struct {
	target    *inject.Target
	goldens   map[int]*inject.Golden // by snapshot cadence
	plan      []inject.Injection
	ref       *inject.Report // scalar reference, no budget
	budget    int
	budgetRef *inject.Report // scalar reference under CycleBudget = budget
}

func newMatrixEnv(t *testing.T, target *inject.Target, g *inject.Golden, base []inject.Injection) *matrixEnv {
	t.Helper()
	e := &matrixEnv{
		target:  target,
		goldens: map[int]*inject.Golden{0: g},
		plan:    collapsiblePlan(g, base),
		budget:  g.Trace.Cycles() / 2,
	}
	_, e.goldens[8] = warmGolden(t, target, g, 8)
	e.ref = injecttest.Reference(t, target, g.Trace, e.plan)
	btgt := *target
	btgt.Supervision.CycleBudget = e.budget
	e.budgetRef = injecttest.Reference(t, &btgt, g.Trace, e.plan)
	// Every row aborts (a budget below the trace length always fires),
	// but at different cycles: lanes whose warm start lies past the
	// budget abort later than their siblings, so the partial monitor
	// fields pin per-lane retirement and the translated abort cycle.
	if e.budgetRef.AbortedCount() == 0 {
		t.Fatal("vacuous: no experiment hit the cycle budget")
	}
	return e
}

// cell returns the target set to k (supervised by sup), the golden it
// runs on, and its telemetry when k.tel is on.
func (e *matrixEnv) cell(k knobs, sup inject.Supervision) (*inject.Target, *inject.Golden, *telemetry.Campaign, *bytes.Buffer) {
	tgt := *e.target
	tgt.Lanes, tgt.Workers, tgt.SnapshotEvery, tgt.Collapse = k.width, k.workers, k.snap, k.collapse
	tgt.Supervision = sup
	if !k.tel {
		return &tgt, e.goldens[k.snap], nil, nil
	}
	itgt, tel, journal := instrumented(&tgt)
	return itgt, e.goldens[k.snap], tel, journal
}

func sameReport(t *testing.T, want, got *inject.Report) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("report differs from the scalar reference")
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatal("report renders differently from the scalar reference")
	}
}

// observed checks that an attached telemetry stack saw the whole
// campaign — a no-op hub would make its neutrality vacuous — and that
// the journal holds one exp_finish per simulated row: statically
// classified and inherited rows are out-of-band.
func observed(t *testing.T, e *matrixEnv, tel *telemetry.Campaign, journal *bytes.Buffer) {
	t.Helper()
	if err := tel.Journal.Close(); err != nil { // flushes the buffered tail
		t.Fatal(err)
	}
	n := len(e.plan)
	snap := tel.Snapshot()
	if snap.Done != int64(n) {
		t.Fatalf("telemetry saw %d done, want %d", snap.Done, n)
	}
	for _, ev := range []string{`"ev":"campaign_start"`, `"ev":"summary"`} {
		if !strings.Contains(journal.String(), ev) {
			t.Fatalf("journal missing %s event", ev)
		}
	}
	simulated := n - int(snap.Preloaded) -
		int(tel.Registry.Counter("faults_static_pruned").Load()) -
		int(tel.Registry.Counter("outcomes_inherited").Load())
	if got := strings.Count(journal.String(), `"ev":"exp_finish"`); got != simulated {
		t.Fatalf("journal has %d exp_finish events, want %d", got, simulated)
	}
	if line := snap.Line(); !strings.HasPrefix(line, fmt.Sprintf("progress: %d/%d exp (100.0%%)", n, n)) {
		t.Fatalf("unexpected progress line: %q", line)
	}
}

// straight runs the whole plan in one call.
func straight(t *testing.T, e *matrixEnv, k knobs) {
	tgt, g, tel, journal := e.cell(k, inject.Supervision{})
	rep, err := tgt.Run(g, e.plan)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, e.ref, rep)
	if tel != nil {
		observed(t, e, tel, journal)
		if tel.Snapshot().SimCycles == 0 {
			t.Fatal("telemetry saw no simulated cycles")
		}
	}
}

// resumed stops the campaign half way and resumes it with a different
// batch width and the other collapse setting: the checkpoint carries
// plain completed rows, so both are per-process choices.
func resumed(t *testing.T, e *matrixEnv, k knobs) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	tgt, g, _, _ := e.cell(k, inject.Supervision{
		Checkpoint: path, CheckpointEvery: 1, StopAfter: len(e.plan) / 2,
	})
	if _, err := tgt.Run(g, e.plan); !errors.Is(err, inject.ErrCampaignStopped) {
		t.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
	}
	k.width = map[int]int{1: 8, 8: 64, 64: 1}[k.width]
	k.collapse = !k.collapse
	tgt, g, tel, journal := e.cell(k, inject.Supervision{Checkpoint: path, Resume: true})
	rep, err := tgt.Run(g, e.plan)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	sameReport(t, e.ref, rep)
	if tel != nil {
		// The resumed half arrives via checkpoint_load, the rest as live
		// experiments; together they cover the plan.
		observed(t, e, tel, journal)
		if !strings.Contains(journal.String(), `"ev":"checkpoint_load"`) {
			t.Fatal("journal missing checkpoint_load event on resume")
		}
		if tel.Snapshot().Preloaded == 0 {
			t.Fatal("telemetry saw no preloaded experiments on a mid-campaign resume")
		}
	}
}

// budgeted runs under a cycle budget that aborts every row: each lane
// must abort at its own absolute trace cycle without perturbing its
// batch siblings, early retirement is off, and a warm start past the
// budget cycle charges the skipped prefix.
func budgeted(t *testing.T, e *matrixEnv, k knobs) {
	tgt, g, tel, journal := e.cell(k, inject.Supervision{CycleBudget: e.budget})
	rep, err := tgt.Run(g, e.plan)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, e.budgetRef, rep)
	if tel != nil {
		observed(t, e, tel, journal)
	}
}

// lone runs every plan row as a range of its own — what a lease that
// collapse or a resume left with one pending row does: the row is a
// one-lane batch and still the reference row, also when its cycle
// budget aborts it.
func lone(t *testing.T, e *matrixEnv, k knobs) {
	for _, tc := range []struct {
		name string
		sup  inject.Supervision
		ref  *inject.Report
	}{
		{"free", inject.Supervision{}, e.ref},
		{"cycle-budget", inject.Supervision{CycleBudget: e.budget}, e.budgetRef},
	} {
		tgt, g, tel, _ := e.cell(k, tc.sup)
		camp := tgt.Prepare(g, e.plan)
		for i := range e.plan {
			ck, err := camp.RunRange(k.workers, i, i+1)
			if err != nil {
				t.Fatalf("%s: row %d: %v", tc.name, i, err)
			}
			if !reflect.DeepEqual(ck, serialRows(tc.ref, i, i+1)) {
				t.Fatalf("%s: row %d alone differs from the reference row", tc.name, i)
			}
		}
		if tel == nil {
			continue
		}
		started := tel.Registry.Counter("exp_started").Load()
		if pruned := tel.Registry.Counter("faults_static_pruned").Load(); started+pruned != int64(len(e.plan)) {
			t.Fatalf("%s: %d rows started + %d pruned over %d one-row ranges", tc.name, started, pruned, len(e.plan))
		}
		if got := tel.Registry.Counter("batches").Load(); got != started {
			t.Fatalf("%s: %d lone rows made %d lane batches", tc.name, started, got)
		}
	}
}

// TestNeutralityMatrix is the determinism contract of the campaign
// engine in one table: whatever the batch width, the goroutine count,
// the warm-start cadence, the static collapse pre-pass and the
// telemetry stack are set to, the report is byte-identical to the
// scalar reference (injecttest.Reference: Target.RunOne per row on the
// interpreted simulator, cold golden) — run straight, stopped and
// resumed under different knobs, under cycle-budget aborts, and row by
// row in one-row ranges; on both memory designs and, for the collapse
// pre-pass, the lockstep CPU.
func TestNeutralityMatrix(t *testing.T) {
	modes := []struct {
		name string
		run  func(*testing.T, *matrixEnv, knobs)
		// runs, when set, says where the mode has a cell: one-row ranges
		// never see the batch width or a second goroutine.
		runs func(knobs) bool
	}{
		{"straight", straight, nil},
		{"resume", resumed, nil},
		{"cycle-budget", budgeted, nil},
		{"lone-rows", lone, func(k knobs) bool { return k.width == 64 && k.workers == 1 }},
	}
	designs := []struct {
		name    string
		fixture func(testing.TB) (*inject.Target, *inject.Golden, []inject.Injection)
		// runs, when set, restricts the case study to part of the table.
		runs func(mode string, k knobs) bool
	}{
		{"v1", func(t testing.TB) (*inject.Target, *inject.Golden, []inject.Injection) {
			return reducedCampaign(t, false)
		}, nil},
		{"v2", func(t testing.TB) (*inject.Target, *inject.Golden, []inject.Injection) {
			return reducedCampaign(t, true)
		}, nil},
		{"lockstep", lockstepCampaign,
			func(mode string, k knobs) bool { return mode == "straight" && k.collapse && k.snap == 0 && !k.tel }},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			target, g, base := d.fixture(t)
			e := newMatrixEnv(t, target, g, base)
			for _, m := range modes {
				for _, width := range []int{1, 8, 64} {
					for _, workers := range []int{1, 8} {
						for _, snap := range []int{0, 8} {
							for _, collapse := range []bool{false, true} {
								for _, tel := range []bool{false, true} {
									k := knobs{width, workers, snap, collapse, tel}
									if m.runs != nil && !m.runs(k) || d.runs != nil && !d.runs(m.name, k) {
										continue
									}
									t.Run(m.name+"/"+k.String(), func(t *testing.T) {
										t.Parallel() // cells share e read-only
										m.run(t, e, k)
									})
								}
							}
						}
					}
				}
			}
		})
	}
}
