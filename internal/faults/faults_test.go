package faults

import (
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

func mkAndDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("d")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	y := n.AddGate(netlist.AND, "", a, b)
	_, q := n.AddFF("r[0]", "", y, netlist.InvalidNet, false)
	n.AddOutput("q", []netlist.NetID{q})
	n.AddOutput("y", []netlist.NetID{y})
	return n
}

func TestKindProperties(t *testing.T) {
	for k, want := range map[Kind]string{SA0: "SA0", SA1: "SA1", Flip: "FLIP", BridgeAND: "BRAND", BridgeOR: "BROR", DelayX: "DELAYX"} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}

func TestApplyRemoveNetSA(t *testing.T) {
	n := mkAndDesign(t)
	s, _ := sim.New(n)
	s.SetInput("a", 1)
	s.SetInput("b", 1)
	s.Eval()
	yNet, _ := n.FindOutput("y")
	f := NetSA(yNet.Nets[0], false)
	f.Apply(s)
	if v, _ := s.ReadOutput("y"); v != 0 {
		t.Errorf("SA0 applied, y = %d", v)
	}
	f.Remove(s)
	if v, _ := s.ReadOutput("y"); v != 1 {
		t.Errorf("SA0 removed, y = %d", v)
	}
}

func TestApplyPinSA(t *testing.T) {
	n := mkAndDesign(t)
	s, _ := sim.New(n)
	s.SetInput("a", 0)
	s.SetInput("b", 1)
	s.Eval()
	f := PinSA(0, 0, true) // AND gate pin0 stuck-at-1
	f.Apply(s)
	if v, _ := s.ReadOutput("y"); v != 1 {
		t.Errorf("pin SA1 applied, y = %d, want 1", v)
	}
	f.Remove(s)
	if v, _ := s.ReadOutput("y"); v != 0 {
		t.Errorf("pin SA1 removed, y = %d, want 0", v)
	}
}

func TestApplyFlip(t *testing.T) {
	n := mkAndDesign(t)
	s, _ := sim.New(n)
	s.SetInput("a", 0)
	s.SetInput("b", 0)
	s.Eval()
	FFFlip(0).Apply(s)
	if v, _ := s.ReadOutput("q"); v != 1 {
		t.Errorf("flip applied, q = %d", v)
	}
}

func TestApplyBridge(t *testing.T) {
	n := netlist.New("br")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	x := n.AddGate(netlist.BUF, "", a)
	y := n.AddGate(netlist.BUF, "", b)
	n.AddOutput("x", []netlist.NetID{x})
	n.AddOutput("y", []netlist.NetID{y})
	s, _ := sim.New(n)
	s.SetInput("a", 1)
	s.SetInput("b", 0)
	f := NetBridge(x, y, true)
	f.Apply(s)
	if v, _ := s.ReadOutput("x"); v != 0 {
		t.Errorf("wired-AND bridge: x = %d, want 0", v)
	}
	f.Remove(s)
	if v, _ := s.ReadOutput("x"); v != 1 {
		t.Errorf("bridge removed: x = %d, want 1", v)
	}
}

func TestApplyDelayX(t *testing.T) {
	n := mkAndDesign(t)
	s, _ := sim.New(n)
	s.SetInput("a", 1)
	s.SetInput("b", 1)
	s.Eval()
	yNet, _ := n.FindOutput("y")
	f := NetDelay(yNet.Nets[0])
	f.Apply(s)
	if _, hasX := s.ReadOutput("y"); !hasX {
		t.Error("delay fault should drive X")
	}
	f.Remove(s)
	if v, hasX := s.ReadOutput("y"); hasX || v != 1 {
		t.Error("delay fault not removed")
	}
}

func TestDescribe(t *testing.T) {
	n := mkAndDesign(t)
	yNet, _ := n.FindOutput("y")
	cases := []struct {
		f    Fault
		want string
	}{
		{NetSA(yNet.Nets[0], true), "SA1@"},
		{PinSA(0, 1, false), "SA0@AND.g0.pin1"},
		{FFFlip(0), "FLIP@FF(r[0])"},
		{NetBridge(0, 1, false), "BROR@("},
	}
	for _, c := range cases {
		if got := c.f.Describe(n); !strings.Contains(got, c.want) {
			t.Errorf("Describe = %q, want contains %q", got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	if Classify(1, 100, 0.25) != Local {
		t.Error("1 zone should be local")
	}
	if Classify(0, 100, 0.25) != Local {
		t.Error("0 zones should be local")
	}
	if Classify(3, 100, 0.25) != Wide {
		t.Error("3/100 should be wide")
	}
	if Classify(30, 100, 0.25) != Global {
		t.Error("30/100 should be global")
	}
	if Classify(2, 0, 0.25) != Wide {
		t.Error("2 zones of unknown total should be wide")
	}
	if got := Local.String() + Wide.String() + Global.String(); got != "localwideglobal" {
		t.Errorf("Class strings = %q", got)
	}
}

func TestStuckAtUniverseCounts(t *testing.T) {
	n := mkAndDesign(t)
	u := StuckAtUniverse(n)
	// Gate: 2 output + 4 pin; PIs: 4; FF Q: 2 => 12 total.
	if len(u.All) != 12 {
		t.Errorf("universe size = %d, want 12", len(u.All))
	}
	if len(u.Reps) >= len(u.All) {
		t.Errorf("collapsing did nothing: %d reps of %d", len(u.Reps), len(u.All))
	}
	total := 0
	for _, sz := range u.ClassSize {
		total += sz
	}
	if total != len(u.All) {
		t.Errorf("class sizes sum to %d, want %d", total, len(u.All))
	}
	if r := u.CollapseRatio(); r <= 1.0 {
		t.Errorf("collapse ratio = %v, want > 1", r)
	}
}

func TestCollapseANDEquivalence(t *testing.T) {
	// For a fanout-free AND: pin SA0s, input net SA0s and output SA0 are
	// all one class.
	n := netlist.New("c")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	y := n.AddGate(netlist.AND, "", a, b)
	n.AddOutput("y", []netlist.NetID{y})
	u := StuckAtUniverse(n)
	// Universe: out 2 + pins 4 + PI 4 = 10.
	// SA0 class: {out0, pin0.0, pin1.0, a0, b0} = 5 faults -> 1 rep.
	// SA1s remain separate: out1, pin0.1≡a1, pin1.1≡b1 -> 3 reps.
	if len(u.Reps) != 4 {
		t.Errorf("AND collapse: %d reps, want 4", len(u.Reps))
	}
	found5 := false
	for _, sz := range u.ClassSize {
		if sz == 5 {
			found5 = true
		}
	}
	if !found5 {
		t.Errorf("AND SA0 class sizes = %v, want a class of 5", u.ClassSize)
	}
}

func TestCollapseXORNotCollapsed(t *testing.T) {
	// XOR has no controlling value: only branch/stem equivalence applies.
	n := netlist.New("x")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	y := n.AddGate(netlist.XOR, "", a, b)
	n.AddOutput("y", []netlist.NetID{y})
	u := StuckAtUniverse(n)
	// 10 faults; pin faults merge with PI net faults (fanout-free), so
	// classes: out0, out1, a0, a1, b0, b1 = 6.
	if len(u.Reps) != 6 {
		t.Errorf("XOR collapse: %d reps, want 6", len(u.Reps))
	}
}

func TestFanoutBranchNotCollapsed(t *testing.T) {
	// Net a feeds two gates: branch faults must stay distinct from stem.
	n := netlist.New("f")
	a := n.AddInput("a", 1)[0]
	y1 := n.AddGate(netlist.NOT, "", a)
	y2 := n.AddGate(netlist.BUF, "", a)
	n.AddOutput("y1", []netlist.NetID{y1})
	n.AddOutput("y2", []netlist.NetID{y2})
	u := StuckAtUniverse(n)
	// Faults: out(y1) 2 + pin(not) 2 + out(y2) 2 + pin(buf) 2 + a 2 = 10.
	// NOT: pin0.0≡out1, pin0.1≡out0; BUF: pin≡out. Stem a NOT merged with
	// branches (fanout=2). Classes: {y1out0,pin1}, {y1out1,pin0},
	// {y2out0,pin0}, {y2out1,pin1}, a0, a1 = 6.
	if len(u.Reps) != 6 {
		t.Errorf("fanout collapse: %d reps, want 6; sizes %v", len(u.Reps), u.ClassSize)
	}
}

// TestSiteKindString pins the site names fault descriptions print.
func TestSiteKindString(t *testing.T) {
	for k, want := range map[SiteKind]string{SiteNet: "net", SitePin: "pin", SiteFF: "flip-flop", SiteKind(9): "SiteKind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("SiteKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}
