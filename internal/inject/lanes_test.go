package inject_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// TestLanesNeutralityMatrix is the determinism contract of the
// word-parallel kernel: with Lanes > 1 the campaign runs up to 64
// experiments per machine word, yet the merged report must stay
// byte-identical to the cold serial reference — across lane and worker
// counts, on both case studies (v2 has behavioral RAM peripherals and
// diagnostic machinery), across a mid-campaign checkpoint resume, and
// under cycle-budget aborts, where each lane must abort at its own
// serial cycle without perturbing its batch siblings.
func TestLanesNeutralityMatrix(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			target, g, plan := reducedCampaign(t, v2)
			ref, err := target.Run(g, plan)
			if err != nil {
				t.Fatal(err)
			}
			refRender := fmt.Sprintf("%#v", ref)

			// Warm golden: the realistic batched configuration shares one
			// snapshot restore across a whole batch.
			wtgt, wg := warmGolden(t, target, g, 8)
			for _, lanes := range []int{1, 8, 64} {
				for _, workers := range []int{1, 8} {
					t.Run(fmt.Sprintf("lanes=%d/workers=%d", lanes, workers), func(t *testing.T) {
						tgt := *wtgt
						tgt.Lanes = lanes
						tgt.Workers = workers
						rep, err := tgt.Run(wg, plan)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(ref, rep) {
							t.Fatal("lane-batched report differs from cold serial reference")
						}
						if fmt.Sprintf("%#v", rep) != refRender {
							t.Fatal("lane-batched report renders differently from reference")
						}
					})
				}
			}

			t.Run("resume", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "campaign.ckpt")
				tgt := *wtgt
				tgt.Lanes = 8
				tgt.Workers = 8
				tgt.Supervision = inject.Supervision{
					Checkpoint: path, CheckpointEvery: 1, StopAfter: len(plan) / 2,
				}
				if _, err := tgt.Run(wg, plan); !errors.Is(err, inject.ErrCampaignStopped) {
					t.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
				}
				// Resume with a different lane width: the checkpoint is
				// lane-agnostic, only plan indices matter.
				tgt = *wtgt
				tgt.Lanes = 64
				tgt.Workers = 8
				tgt.Supervision = inject.Supervision{Checkpoint: path, Resume: true}
				rep, err := tgt.Run(wg, plan)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !reflect.DeepEqual(ref, rep) {
					t.Fatal("lane-batched resumed report differs from reference")
				}
				if fmt.Sprintf("%#v", rep) != refRender {
					t.Fatal("lane-batched resumed report renders differently")
				}
			})

			t.Run("cycle-budget", func(t *testing.T) {
				budget := g.Trace.Cycles() / 2
				ctgt := *target
				ctgt.Supervision = inject.Supervision{CycleBudget: budget}
				cref, err := ctgt.Run(g, plan)
				if err != nil {
					t.Fatal(err)
				}
				if cref.AbortedCount() == 0 {
					t.Fatal("vacuous: no experiment hit the cycle budget")
				}
				// Every row aborts (a budget below the trace length always
				// fires), but at different cycles: lanes whose warm start
				// lies past the budget abort later than their siblings, so
				// the partial monitor fields pin per-lane retirement.
				for _, lanes := range []int{8, 64} {
					tgt := *wtgt
					tgt.Lanes = lanes
					tgt.Supervision = inject.Supervision{CycleBudget: budget}
					rep, err := tgt.Run(wg, plan)
					if err != nil {
						t.Fatalf("lanes=%d: %v", lanes, err)
					}
					if !reflect.DeepEqual(cref, rep) {
						t.Fatalf("lanes=%d: budget-abort report differs from cold serial", lanes)
					}
					if fmt.Sprintf("%#v", rep) != fmt.Sprintf("%#v", cref) {
						t.Fatalf("lanes=%d: budget-abort report renders differently", lanes)
					}
				}
			})

			// A lease that collapse or a resume left with one pending
			// batchable row runs it as a one-lane batch, not on the scalar
			// path: every plan row taken alone must ride the kernel and
			// still be the serial row, also when its cycle budget aborts it.
			t.Run("lone-row", func(t *testing.T) {
				budget := g.Trace.Cycles() / 2
				btgt := *target
				btgt.Supervision = inject.Supervision{CycleBudget: budget}
				bref, err := btgt.Run(g, plan)
				if err != nil {
					t.Fatal(err)
				}
				for _, tc := range []struct {
					name string
					sup  inject.Supervision
					ref  *inject.Report
				}{
					{"free", inject.Supervision{}, ref},
					{"cycle-budget", inject.Supervision{CycleBudget: budget}, bref},
				} {
					tgt, tel, _ := instrumented(wtgt)
					tgt.Lanes = 64
					tgt.Supervision = tc.sup
					camp, err := tgt.Prepare(wg, plan)
					if err != nil {
						t.Fatal(err)
					}
					for i := range plan {
						ck, err := camp.RunRange(1, i, i+1)
						if err != nil {
							t.Fatalf("%s: row %d: %v", tc.name, i, err)
						}
						want := []inject.IndexedResult{{PlanIndex: i, Result: tc.ref.Results[i]}}
						if !reflect.DeepEqual(ck.Results, want) || len(ck.Quarantined) != 0 {
							t.Fatalf("%s: row %d alone differs from the serial row", tc.name, i)
						}
					}
					if got := tel.Registry.Counter("batches").Load(); got != int64(len(plan)) {
						t.Fatalf("%s: %d one-row ranges made %d lane batches — lone rows fell to the scalar path",
							tc.name, len(plan), got)
					}
				}
			})
		})
	}
}

// TestLanesPropertyRandomCircuits compares 64-lane and serial campaign
// reports over random circuits, with the planner's fault mix extended
// by hand-written pin stuck-ats, bridging faults and a released
// (Duration > 0) stuck-at — the fault models BuildPlan never emits, so
// the lane arming/removal paths for every batchable kind are exercised.
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
		serial, err := target.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		wtgt, wg := warmGolden(t, target, g, 7)
		wtgt.Lanes = 64
		laned, err := wtgt.Run(wg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, laned) {
			t.Fatalf("seed %d: 64-lane verdicts differ from serial", seed)
		}
	}
}

// TestLanesTelemetryNeutrality extends the telemetry out-of-band
// contract to the batched path: with lanes on and the full telemetry
// stack attached, the report stays byte-identical, the journal still
// carries one exp_finish per plan row, and the new batch counters
// actually observed the lane scheduler.
func TestLanesTelemetryNeutrality(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	ref, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
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
