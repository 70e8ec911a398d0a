package inject_test

import (
	"reflect"
	"testing"

	"repro/internal/designs"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zones"
)

// The fault-free replays — the golden run, the collapse pre-pass's
// quiescence replay and the toggle measurement — run on one lane of the
// compiled kernel. Each test below replays the same trace on the
// interpreted simulator, in the test, and requires identical streams.

// replayFixtures are the three case studies with their plans.
var replayFixtures = []struct {
	name    string
	fixture func(testing.TB) (*inject.Target, *inject.Golden, []inject.Injection)
}{
	{"v1", func(t testing.TB) (*inject.Target, *inject.Golden, []inject.Injection) {
		return reducedCampaign(t, false)
	}},
	{"v2", func(t testing.TB) (*inject.Target, *inject.Golden, []inject.Injection) {
		return reducedCampaign(t, true)
	}},
	{"cpu-lockstep", lockstepCampaign},
}

// simReplay steps a fresh instance through the trace on the
// interpreter: pre is called with the cycle's inputs applied and
// settled, post after the clock edge.
func simReplay(t *testing.T, target *inject.Target, tr *workload.Trace, pre, post func(s *sim.Simulator, c int)) *sim.Simulator {
	t.Helper()
	s, err := target.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < tr.Cycles(); c++ {
		tr.ApplyTo(s, c)
		s.Eval()
		if pre != nil {
			pre(s, c)
		}
		s.Step()
		if post != nil {
			post(s, c)
		}
	}
	return s
}

// TestGoldenRunDifferential: observation traces, zone folds, the
// operational profile, the completeness verdict and every snapshot of
// the kernel golden run equal an interpreted replay's, cold and with a
// snapshot cadence.
func TestGoldenRunDifferential(t *testing.T) {
	for _, fx := range replayFixtures {
		t.Run(fx.name, func(t *testing.T) {
			target, cold, _ := fx.fixture(t)
			a := target.Analysis
			for _, every := range []int{0, 16} {
				g := cold
				if every > 0 {
					_, g = warmGolden(t, target, cold, every)
				}
				tr := g.Trace
				obsVal := make([][]uint64, len(a.Obs))
				obsX := make([][]uint64, len(a.Obs))
				folds := make([][]uint64, len(a.Zones))
				var snaps []*sim.Snapshot
				simReplay(t, target, tr, nil, func(s *sim.Simulator, c int) {
					for oi := range a.Obs {
						v, x := s.ReadBusX(a.Obs[oi].Nets)
						obsVal[oi] = append(obsVal[oi], v)
						obsX[oi] = append(obsX[oi], x)
					}
					for zi := range a.Zones {
						var h uint64 = 1469598103934665603
						for _, id := range a.EffectNets(zi) {
							h = (h ^ uint64(s.Net(id))) * 1099511628211
						}
						folds[zi] = append(folds[zi], h)
					}
					if every > 0 && (c+1)%every == 0 && c+1 < tr.Cycles() {
						snaps = append(snaps, s.Snapshot())
					}
				})
				for oi := range a.Obs {
					val, x := g.ObsTrace(oi)
					if !reflect.DeepEqual(val, obsVal[oi]) || !reflect.DeepEqual(x, obsX[oi]) {
						t.Fatalf("snap=%d: observation point %d trace differs", every, oi)
					}
				}
				activity := make([][]int, len(a.Zones))
				for zi := range a.Zones {
					if !reflect.DeepEqual(g.ZoneFolds(zi), folds[zi]) {
						t.Fatalf("snap=%d: zone %d fold differs", every, zi)
					}
					for c, v := range folds[zi] {
						if c == 0 || v != folds[zi][c-1] {
							activity[zi] = append(activity[zi], c)
						}
					}
				}
				if !reflect.DeepEqual(g.Activity, activity) {
					t.Fatalf("snap=%d: operational profile differs", every)
				}
				ref := *g
				ref.Activity = activity
				okRef, inactiveRef := ref.CompletenessOK()
				if ok, inactive := g.CompletenessOK(); ok != okRef || !reflect.DeepEqual(inactive, inactiveRef) {
					t.Fatalf("snap=%d: completeness %v %v, interpreted %v %v", every, ok, inactive, okRef, inactiveRef)
				}
				got := g.Snapshots()
				if len(got) != len(snaps) || every > 0 && len(snaps) == 0 {
					t.Fatalf("snap=%d: %d snapshots, interpreted %d", every, len(got), len(snaps))
				}
				for i, sn := range got {
					want := snaps[i]
					if sn.Cycle() != want.Cycle() ||
						!reflect.DeepEqual(sn.FFValues(), want.FFValues()) ||
						!reflect.DeepEqual(sn.ExtValues(), want.ExtValues()) ||
						!reflect.DeepEqual(sn.PeripheralStates(), want.PeripheralStates()) {
						t.Fatalf("snap=%d: snapshot %d (cycle %d) differs from the interpreter's (cycle %d)",
							every, i, sn.Cycle(), want.Cycle())
					}
				}
			}
		})
	}
}

// TestQuiescenceDifferential: the pre-edge and post-edge net streams
// and the post-edge flip-flop streams the collapse pre-pass proves
// quiescence from equal an interpreted replay's.
func TestQuiescenceDifferential(t *testing.T) {
	for _, fx := range replayFixtures {
		t.Run(fx.name, func(t *testing.T) {
			target, cold, plan := fx.fixture(t)
			for _, every := range []int{0, 16} {
				g := cold
				if every > 0 {
					_, g = warmGolden(t, target, cold, every)
				}
				pre, post, ffPost := target.Quiescence(g, plan)
				if len(pre) == 0 || len(ffPost) == 0 {
					t.Fatalf("snap=%d: vacuous: %d net and %d flip-flop streams", every, len(pre), len(ffPost))
				}
				same := func(what string, got []sim.Value, c int, v sim.Value) {
					if got[c] != v {
						t.Fatalf("snap=%d: %s at cycle %d = %v, interpreted %v", every, what, c, got[c], v)
					}
				}
				simReplay(t, target, g.Trace, func(s *sim.Simulator, c int) {
					for id, st := range pre {
						same("pre-edge net "+target.Analysis.N.NetName(id), st, c, s.Net(id))
					}
				}, func(s *sim.Simulator, c int) {
					for id, st := range post {
						same("post-edge net "+target.Analysis.N.NetName(id), st, c, s.Net(id))
					}
					for id, st := range ffPost {
						same("flip-flop", st, c, s.FFState(id))
					}
				})
			}
		})
	}
}

// adder is a 4-bit registered adder with no peripherals (s <= a+b).
func adder(t testing.TB) *inject.Target {
	m := rtl.NewModule("adder")
	sum, carry := m.Add(m.Input("a", 4), m.Input("b", 4))
	m.Output("s", m.RegNext("sum", rtl.Concat(sum, rtl.Bus{carry}), 0))
	n, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a, err := zones.Extract(n, zones.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &inject.Target{Analysis: a, NewInstance: func() (*sim.Simulator, error) { return sim.New(n) }}
}

// TestToggleCoverageDifferential: the kernel toggle measurement equals
// an interpreted replay's on each design's coverage workload and on a
// peripheral-less adder, where exhaustive stimulus toggles every net
// and an all-zero one very few.
func TestToggleCoverageDifferential(t *testing.T) {
	type tcase struct {
		target *inject.Target
		tr     *workload.Trace
		check  func(*testing.T, inject.ToggleReport)
	}
	cases := map[string]tcase{}
	for _, name := range []string{"v1", "v2", "cpu-lockstep"} {
		dut, err := designs.BuildDUT(name, 6, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := dut.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = tcase{target: dut.Target(a), tr: dut.CoverageTrace()}
	}
	exhaustive := workload.NewTrace("a", "b")
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			exhaustive.Add(map[string]uint64{"a": a, "b": b})
		}
	}
	exhaustive.AddIdle(1)
	cases["adder/exhaustive"] = tcase{adder(t), exhaustive, func(t *testing.T, rep inject.ToggleReport) {
		if rep.Coverage() != 1 {
			t.Errorf("toggle coverage = %v, untoggled %v", rep.Coverage(), rep.Untoggled)
		}
	}}
	idle := workload.NewTrace("a", "b")
	idle.AddIdle(2)
	cases["adder/idle"] = tcase{adder(t), idle, func(t *testing.T, rep inject.ToggleReport) {
		if rep.Coverage() >= 0.5 {
			t.Errorf("all-zero stimulus should toggle little, got %v", rep.Coverage())
		}
	}}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rep, err := tc.target.ToggleCoverage(tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.target.Analysis.N
			seen0 := make([]bool, len(n.Nets))
			seen1 := make([]bool, len(n.Nets))
			record := func(s *sim.Simulator, _ int) {
				for id := range n.Nets {
					switch s.Net(netlist.NetID(id)) {
					case sim.V0:
						seen0[id] = true
					case sim.V1:
						seen1[id] = true
					}
				}
			}
			fresh, err := tc.target.NewInstance()
			if err != nil {
				t.Fatal(err)
			}
			record(fresh, 0)
			simReplay(t, tc.target, tc.tr, nil, record)
			want := inject.ToggleReport{}
			for id := range n.Nets {
				nid := netlist.NetID(id)
				if _, isConst := n.IsConst(nid); isConst || !n.IsDriven(nid) {
					continue
				}
				want.Eligible++
				if seen0[id] && seen1[id] {
					want.Covered++
				} else {
					want.Untoggled = append(want.Untoggled, nid)
				}
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("kernel %d/%d untoggled %v, interpreted %d/%d untoggled %v",
					rep.Covered, rep.Eligible, rep.Untoggled, want.Covered, want.Eligible, want.Untoggled)
			}
			if want.Eligible == 0 {
				t.Fatal("vacuous: no eligible net")
			}
			if tc.check != nil {
				tc.check(t, rep)
			}
		})
	}
}

// TestUnknownTracePortIsError: a trace naming a port the netlist lacks
// is an error from every fault-free replay, never a panic — measuring a
// partially driven design would inflate every figure it feeds.
func TestUnknownTracePortIsError(t *testing.T) {
	target := adder(t)
	tr := workload.NewTrace("a", "nosuchport")
	tr.Add(map[string]uint64{"a": 1, "nosuchport": 1})
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunGolden", func() error { _, err := target.RunGolden(tr); return err }},
		{"ToggleCoverage", func() error { _, err := target.ToggleCoverage(tr); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			const want = `inject: trace port "nosuchport" not in netlist`
			if err := tc.run(); err == nil || err.Error() != want {
				t.Fatalf("got %v, want %s", err, want)
			}
		})
	}
}
