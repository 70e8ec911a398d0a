package statfault

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestProofsAgreeWithFaultSim checks the static proofs against the
// gate-level fault simulator over random circuits and the full
// uncollapsed stuck-at universe (net and pin sites): a fault proven
// undetectable (forced to its proven constant, no observation point in
// its cone, or a pin behind a gate whose output reaches none) is never
// detected, and faults sharing a canonical atom (Canon for net faults,
// PinAtom for controlling-value pin faults) get identical verdicts on
// both the functional and the diagnostic observation lists. Random
// circuits carry no constants, so each one gets a side path through a
// tied-off AND and a flip-flop into an extra diagnostic output. Every
// rule must fire, or the property is vacuous.
func TestProofsAgreeWithFaultSim(t *testing.T) {
	var constant, cone, pinCone, folded int
	for seed := uint64(1); seed <= 10; seed++ {
		n := randckt.Generate(randckt.Default(), seed)
		out, _ := n.FindOutput("out")
		tie := n.AddGate(netlist.AND, "", n.Inputs[0].Nets[0], n.ConstNet(false))
		_, q := n.AddFF("tie_q", "", tie, netlist.InvalidNet, false)
		side := n.AddGate(netlist.OR, "", q, out.Nets[0])
		n.AddOutput("side", []netlist.NetID{side})
		half := len(out.Nets) / 2
		funcObs := out.Nets[:half]
		diagObs := append([]netlist.NetID{side}, out.Nets[half:]...)
		sf, err := ForMonitors(n, funcObs, diagObs)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := faultsim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Random(xrand.New(seed+500), []string{"in"}, map[string]int{"in": 6}, 30)
		list := faults.StuckAtUniverse(n).All
		res, err := eng.Run(tr, funcObs, diagObs, list)
		if err != nil {
			t.Fatal(err)
		}
		first := map[Atom]int{}
		for i, f := range list {
			v := f.Kind == faults.SA1
			det := res.PerFault[i]
			undetectable := func(rule string, count *int) {
				*count++
				if det.Func || det.Diag {
					t.Errorf("seed %d: %s proven undetectable (%s) but detected: %+v", seed, f.Describe(n), rule, det)
				}
			}
			var at Atom
			switch f.Site {
			case faults.SiteNet:
				if cv, ok := sf.ConstNet(f.Net); ok && cv == v {
					undetectable("constant", &constant)
					continue
				}
				if !sf.ReachesObs(f.Net) {
					undetectable("cone", &cone)
					continue
				}
				at = sf.Canon(f.Net, v)
			case faults.SitePin:
				if !sf.ReachesObs(n.Gates[f.Gate].Output) {
					undetectable("pin cone", &pinCone)
					continue
				}
				pa, ok := sf.PinAtom(f.Gate, f.Pin, v)
				if !ok {
					continue
				}
				if rn, rv := pa.Net(); rn >= 0 {
					if cv, cok := sf.ConstNet(rn); cok && cv == rv {
						undetectable("constant", &constant)
						continue
					}
				}
				at = pa
			default:
				t.Fatalf("seed %d: universe holds a non-stuck-at site %v", seed, f.Site)
			}
			r, seen := first[at]
			if !seen {
				first[at] = i
				continue
			}
			folded++
			if det != res.PerFault[r] {
				t.Errorf("seed %d: %s and %s share atom %d but detect as %+v vs %+v",
					seed, f.Describe(n), list[r].Describe(n), at, det, res.PerFault[r])
			}
		}
	}
	t.Logf("faults covered: constant %d, cone %d, pin cone %d, folded onto an earlier atom %d", constant, cone, pinCone, folded)
	if constant == 0 || cone == 0 || pinCone == 0 || folded == 0 {
		t.Fatal("vacuous: a rule never fired on 10 random circuits")
	}
}
