package faultsim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestLaneZeroMatchesSerialSim: on random circuits with fully known
// stimulus, the bit-parallel engine's golden lane must agree with the
// three-valued simulator exactly — the central differential property
// between the two simulation engines.
func TestLaneZeroMatchesSerialSim(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		n := randckt.Generate(randckt.Default(), seed)
		eng, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Random(xrand.New(seed+100), []string{"in"}, map[string]int{"in": 6}, 30)
		out, _ := n.FindOutput("out")

		// For each collapsed fault, the engine's detection verdict must
		// match what two serial simulations (golden vs faulty) conclude.
		u := faults.StuckAtUniverse(n)
		limit := len(u.Reps)
		if limit > 40 {
			limit = 40
		}
		res, err := eng.Run(tr, out.Nets, nil, u.Reps[:limit])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < limit; i++ {
			f := u.Reps[i]
			want := serialDetects(t, n, tr, f, out.Nets)
			if res.PerFault[i].Func != want {
				t.Fatalf("seed %d fault %s: engine=%v serial=%v",
					seed, f.Describe(n), res.PerFault[i].Func, want)
			}
		}
	}
}

func serialDetects(t *testing.T, n *netlist.Netlist, tr *workload.Trace, f faults.Fault, obs []netlist.NetID) bool {
	t.Helper()
	golden := serialTrace(t, n, tr, nil, obs)
	faulty := serialTrace(t, n, tr, &f, obs)
	for c := range golden {
		if golden[c] != faulty[c] {
			return true
		}
	}
	return false
}

func serialTrace(t *testing.T, n *netlist.Netlist, tr *workload.Trace, f *faults.Fault, obs []netlist.NetID) []uint64 {
	t.Helper()
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		f.Apply(s)
	}
	out := make([]uint64, tr.Cycles())
	for c := 0; c < tr.Cycles(); c++ {
		tr.ApplyTo(s, c)
		s.Eval()
		v, _ := s.ReadBus(obs)
		out[c] = v
		s.Step()
	}
	return out
}

// TestUniverseClassesEquivalent: every fault in a structural equivalence
// class must have the same detection verdict as its representative —
// the correctness property of fault collapsing.
func TestUniverseClassesEquivalent(t *testing.T) {
	for seed := uint64(20); seed <= 26; seed++ {
		cfg := randckt.Default()
		cfg.Gates = 25
		n := randckt.Generate(cfg, seed)
		u := faults.StuckAtUniverse(n)
		eng, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Random(xrand.New(seed), []string{"in"}, map[string]int{"in": 6}, 40)
		out, _ := n.FindOutput("out")
		all, err := eng.Run(tr, out.Nets, nil, u.All)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := eng.Run(tr, out.Nets, nil, u.Reps)
		if err != nil {
			t.Fatal(err)
		}
		// Group u.All by detection class membership: every member of a
		// class must match the class's representative verdict. Recover
		// classes by re-collapsing: collapse maps are internal, so check
		// the weaker but meaningful property that the detected-fault
		// count over All is consistent with class-size-weighted reps.
		detAll := 0
		for _, d := range all.PerFault {
			if d.Func {
				detAll++
			}
		}
		detReps := 0
		for i, d := range reps.PerFault {
			if d.Func {
				detReps += u.ClassSize[i]
			}
		}
		if detAll != detReps {
			t.Fatalf("seed %d: detected %d of all faults but class-weighted reps say %d",
				seed, detAll, detReps)
		}
	}
}

// TestVerdictsIndependentOfChunking: lanes are bitwise independent, so a
// fault's verdict does not depend on which pass or lane carries it. Any
// split of the list, and the reversed list, reproduce the verdicts of
// one run over the whole list.
func TestVerdictsIndependentOfChunking(t *testing.T) {
	cfg := randckt.Default()
	cfg.Gates = 90
	n := randckt.Generate(cfg, 7)
	eng, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Random(xrand.New(99), []string{"in"}, map[string]int{"in": 6}, 30)
	out, _ := n.FindOutput("out")
	list := faults.StuckAtUniverse(n).Reps
	if len(list) <= 2*lanesPerPass {
		t.Fatalf("fixture too small: %d faults, need > %d", len(list), 2*lanesPerPass)
	}
	run := func(l []faults.Fault) Result {
		t.Helper()
		res, err := eng.Run(tr, out.Nets, nil, l)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	whole := run(list)
	for _, cut := range []int{1, lanesPerPass, lanesPerPass + 17} {
		lo, hi := run(list[:cut]), run(list[cut:])
		if got := append(slices.Clone(lo.PerFault), hi.PerFault...); !reflect.DeepEqual(got, whole.PerFault) {
			t.Fatalf("split at %d: verdicts differ from the whole-list run", cut)
		}
		if lo.AnyDet+hi.AnyDet != whole.AnyDet || lo.FuncDet+hi.FuncDet != whole.FuncDet {
			t.Fatalf("split at %d: tallies %d+%d != %d", cut, lo.AnyDet, hi.AnyDet, whole.AnyDet)
		}
	}
	rev := slices.Clone(list)
	slices.Reverse(rev)
	got := run(rev).PerFault
	slices.Reverse(got)
	if !reflect.DeepEqual(got, whole.PerFault) {
		t.Fatal("reversed list: verdicts differ from the whole-list run")
	}
}
