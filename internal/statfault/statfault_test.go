package statfault

import (
	"reflect"
	"testing"

	"repro/internal/netlist"
)

// chainCkt builds in → AND(a,b) → x → NOT → y, with y the observed
// output and a dangling INV off net a that feeds nothing observed.
func chainCkt(t *testing.T) (n *netlist.Netlist, a, b, x, y, stray netlist.NetID) {
	t.Helper()
	n = netlist.New("chain")
	a = n.AddInput("a", 1)[0]
	b = n.AddInput("b", 1)[0]
	x = n.AddGate(netlist.AND, "", a, b)
	y = n.AddGate(netlist.NOT, "", x)
	stray = n.AddGate(netlist.NOT, "", a)
	n.AddOutput("out", []netlist.NetID{y})
	return
}

func TestReachability(t *testing.T) {
	n, a, b, x, y, stray := chainCkt(t)
	sf, err := ForMonitors(n, []netlist.NetID{y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []netlist.NetID{a, b, x, y} {
		if !sf.ReachesObs(id) {
			t.Errorf("net %d should reach the observation point", id)
		}
	}
	if sf.ReachesObs(stray) {
		t.Error("dangling inverter output must not reach the observation point")
	}
	if sf.ReachesObs(netlist.InvalidNet) {
		t.Error("invalid net must not reach anything")
	}
}

func TestReachabilityThroughFF(t *testing.T) {
	n := netlist.New("ff")
	d := n.AddInput("d", 1)[0]
	en := n.AddInput("en", 1)[0]
	_, q := n.AddFF("r", "", d, en, false)
	out := n.AddGate(netlist.BUF, "", q)
	n.AddOutput("out", []netlist.NetID{out})
	sf, err := ForMonitors(n, []netlist.NetID{out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []netlist.NetID{d, en, q, out} {
		if !sf.ReachesObs(id) {
			t.Errorf("net %d should reach through the flip-flop (D and Enable both carry deviations)", id)
		}
	}
}

func TestConstPropagation(t *testing.T) {
	n := netlist.New("const")
	in := n.AddInput("in", 1)[0]
	c0 := n.ConstNet(false)
	c1 := n.ConstNet(true)
	andK := n.AddGate(netlist.AND, "", in, c0)                  // const 0: controlling input
	orK := n.AddGate(netlist.OR, "", in, c1)                    // const 1
	notK := n.AddGate(netlist.NOT, "", andK)                    // const 1
	xorK := n.AddGate(netlist.XOR, "", c1, c1)                  // const 0
	muxK := n.AddGate(netlist.MUX2, "", in, c1, c1)             // X-select but both ways agree
	free := n.AddGate(netlist.AND, "", in, c1)                  // not constant
	_, q0 := n.AddFF("q0", "", andK, netlist.InvalidNet, false) // D const0, resets 0
	_, q1 := n.AddFF("q1", "", andK, netlist.InvalidNet, true)  // D const0, resets 1: transient
	n.AddOutput("out", []netlist.NetID{orK, notK, xorK, muxK, free, q0, q1})
	sf, err := ForMonitors(n, []netlist.NetID{free}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantConst := map[netlist.NetID]bool{andK: false, orK: true, notK: true, xorK: false, muxK: true, q0: false}
	for id, want := range wantConst { //det:order test-local assertion loop
		v, ok := sf.ConstNet(id)
		if !ok || v != want {
			t.Errorf("net %d: ConstNet = (%v,%v), want (%v,true)", id, v, ok, want)
		}
	}
	for _, id := range []netlist.NetID{in, free, q1} {
		if _, ok := sf.ConstNet(id); ok {
			t.Errorf("net %d must not be proven constant", id)
		}
	}
}

func TestCollapseRules(t *testing.T) {
	n := netlist.New("col")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	x := n.AddGate(netlist.AND, "", a, b) // x: single fanout, invisible stem
	y := n.AddGate(netlist.NOT, "", x)
	z := n.AddGate(netlist.BUF, "", y)
	n.AddOutput("out", []netlist.NetID{z})
	sf, err := ForMonitors(n, []netlist.NetID{z}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// NOT: in-SA-v ≡ out-SA-!v; BUF: in-SA-v ≡ out-SA-v. The chain
	// x-SA-0 ≡ y-SA-1 ≡ z-SA-1 must land on one canonical atom.
	if sf.Canon(x, false) != sf.Canon(y, true) || sf.Canon(y, true) != sf.Canon(z, true) {
		t.Error("x-SA-0 / y-SA-1 / z-SA-1 must share a canonical atom through NOT and BUF")
	}
	if sf.Canon(x, true) != sf.Canon(z, false) {
		t.Error("x-SA-1 / z-SA-0 must share a canonical atom")
	}
	// AND controlling rule: a-SA-0 ≡ x-SA-0. Under ForMonitors nothing
	// but the AND gate reads a (fanout 1, not an observation point), so
	// the input stem is a legal merge; the campaign-side New() analysis
	// additionally protects port nets and would keep these apart.
	if sf.Canon(a, false) != sf.Canon(x, false) {
		t.Error("invisible input stem a-SA-0 should collapse onto x-SA-0 under ForMonitors")
	}
	if sf.Canon(a, true) == sf.Canon(x, true) {
		t.Error("AND in-SA-1 is non-controlling and must not merge with out-SA-1")
	}
	if sf.Canon(x, false) == sf.Canon(x, true) {
		t.Error("opposite polarities must never merge")
	}
}

func TestCollapseRespectsMonitors(t *testing.T) {
	n := netlist.New("mon")
	a := n.AddInput("a", 1)[0]
	x := n.AddGate(netlist.BUF, "", a)
	y := n.AddGate(netlist.NOT, "", x)
	n.AddOutput("out", []netlist.NetID{y})
	// x observed directly: the stem is visible, no merge through NOT.
	sf, err := ForMonitors(n, []netlist.NetID{y, x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Canon(x, false) == sf.Canon(y, true) {
		t.Error("an observed stem must not collapse onto its reader's output")
	}
	if !sf.monitored[x] {
		t.Error("x is an observation point and must be monitored")
	}
}

func TestPinAtom(t *testing.T) {
	n := netlist.New("pin")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	x := n.AddGate(netlist.AND, "", a, b)
	y := n.AddGate(netlist.NOT, "", x)
	n.AddOutput("out", []netlist.NetID{y})
	sf, err := ForMonitors(n, []netlist.NetID{y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	andID, notID := n.Gates[0].ID, n.Gates[1].ID
	// AND pin SA-0 ≡ output SA-0 (controlling), regardless of stem
	// visibility — the pin force never touches the input net itself.
	if at, ok := sf.PinAtom(andID, 0, false); !ok || at != sf.Canon(x, false) {
		t.Errorf("AND pin SA-0: got (%v,%v), want the x-SA-0 atom", at, ok)
	}
	// AND pin SA-1 is non-controlling: no single-net equivalent.
	if _, ok := sf.PinAtom(andID, 0, true); ok {
		t.Error("AND pin SA-1 must not map onto a net atom")
	}
	if at, ok := sf.PinAtom(notID, 0, true); !ok || at != sf.Canon(y, false) {
		t.Errorf("NOT pin SA-1: got (%v,%v), want the y-SA-0 atom", at, ok)
	}
	if _, ok := sf.PinAtom(andID, 5, false); ok {
		t.Error("out-of-range pin must not map")
	}
	if _, ok := sf.PinAtom(netlist.GateID(99), 0, false); ok {
		t.Error("out-of-range gate must not map")
	}
}

func TestClassesAndDominanceDeterministic(t *testing.T) {
	build := func() *Analysis {
		n := netlist.New("det")
		a := n.AddInput("a", 1)[0]
		b := n.AddInput("b", 1)[0]
		x := n.AddGate(netlist.AND, "", a, b)
		y := n.AddGate(netlist.NOT, "", x)
		z := n.AddGate(netlist.OR, "", y, b)
		n.AddOutput("out", []netlist.NetID{z})
		sf, err := ForMonitors(n, []netlist.NetID{z}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}
	s1, s2 := build(), build()
	c1, c2 := s1.Classes(), s2.Classes()
	if len(c1) == 0 {
		t.Fatal("vacuous: no equivalence classes on the chain circuit")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Error("Classes() is not deterministic across identical builds")
	}
	for _, c := range c1 {
		if len(c.Members) < 2 {
			t.Errorf("class %v has %d members; non-singleton classes only", c.Rep, len(c.Members))
		}
		if c.Members[0] != c.Rep {
			t.Errorf("class %v: Members[0] = %v, want the representative first", c.Rep, c.Members[0])
		}
		for i := 1; i < len(c.Members); i++ {
			if c.Members[i] <= c.Members[i-1] {
				t.Errorf("class %v members not strictly ascending: %v", c.Rep, c.Members)
			}
		}
	}
	d1, d2 := s1.Dominance(), s2.Dominance()
	if len(d1) == 0 {
		t.Fatal("vacuous: no dominance edges on the chain circuit")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Error("Dominance() is not deterministic across identical builds")
	}
}

func TestConeNets(t *testing.T) {
	n, a, _, x, y, stray := chainCkt(t)
	sf, err := ForMonitors(n, []netlist.NetID{y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sf.ConeNets(y); got != 1 {
		t.Errorf("ConeNets(y) = %d, want 1 (itself)", got)
	}
	if got := sf.ConeNets(x); got != 2 {
		t.Errorf("ConeNets(x) = %d, want 2 (x, y)", got)
	}
	// a feeds the AND and the stray inverter: {a, x, y, stray}.
	if got := sf.ConeNets(a); got != 4 {
		t.Errorf("ConeNets(a) = %d, want 4", got)
	}
	if got := sf.ConeNets(stray); got != 1 {
		t.Errorf("ConeNets(stray) = %d, want 1", got)
	}
}

func TestAtomRoundTrip(t *testing.T) {
	for _, id := range []netlist.NetID{0, 1, 77} {
		for _, v := range []bool{false, true} {
			net, pol := AtomOf(id, v).Net()
			if net != id || pol != v {
				t.Fatalf("AtomOf(%d,%v) round-trips to (%d,%v)", id, v, net, pol)
			}
		}
	}
}
