package netlist

import (
	"strings"
	"testing"
)

func TestAddNetAndNames(t *testing.T) {
	n := New("t")
	a := n.AddNet("a")
	b := n.AddNet("")
	if got := n.NetName(a); got != "a" {
		t.Errorf("NetName(a) = %q, want a", got)
	}
	if got := n.NetName(b); got != "n1" {
		t.Errorf("NetName(unnamed) = %q, want n1", got)
	}
}

func TestConstNets(t *testing.T) {
	n := New("t")
	c1 := n.ConstNet(true)
	c1b := n.ConstNet(true)
	if c1 != c1b {
		t.Errorf("ConstNet(true) not memoized: %d vs %d", c1, c1b)
	}
	c0 := n.ConstNet(false)
	if c0 == c1 {
		t.Error("const0 and const1 share a net")
	}
	if v, ok := n.IsConst(c1); !ok || !v {
		t.Errorf("IsConst(const1) = %v,%v", v, ok)
	}
	if v, ok := n.IsConst(c0); !ok || v {
		t.Errorf("IsConst(const0) = %v,%v", v, ok)
	}
	if _, ok := n.IsConst(n.AddNet("x")); ok {
		t.Error("regular net reported const")
	}
}

func TestGateArityPanics(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	defer func() {
		if recover() == nil {
			t.Error("NOT with 2 inputs did not panic")
		}
	}()
	n.AddGate(NOT, "", a, a)
}

func TestGateAndArityTooFew(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	defer func() {
		if recover() == nil {
			t.Error("AND with 1 input did not panic")
		}
	}()
	n.AddGate(AND, "", a)
}

func TestDoubleDriverPanics(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	out := n.AddGate(NOT, "", a)
	defer func() {
		if recover() == nil {
			t.Error("driving an already-driven net did not panic")
		}
	}()
	n.AddGateTo(BUF, "", out, a)
}

func TestDrivers(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	g := n.AddGate(NOT, "", a)
	_, q := n.AddFF("r[0]", "", g, InvalidNet, false)

	if gt, ok := n.DriverGate(g); !ok || gt.Type != NOT {
		t.Error("DriverGate failed for NOT output")
	}
	if ff, ok := n.DriverFF(q); !ok || ff.Name != "r[0]" {
		t.Error("DriverFF failed for FF Q")
	}
	if _, ok := n.DriverGate(a); ok {
		t.Error("primary input reported gate driver")
	}
}

func TestLevelizeOrder(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	x := n.AddGate(AND, "", a, b)
	y := n.AddGate(NOT, "", x)
	z := n.AddGate(OR, "", y, a)
	_ = z
	order, err := n.Levelize()
	if err != nil {
		t.Fatalf("Levelize: %v", err)
	}
	pos := make(map[GateID]int)
	for i, g := range order {
		pos[g] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("bad topological order: %v", order)
	}
}

func TestLevelizeDetectsCycle(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	loop := n.AddNet("loop")
	x := n.AddGate(AND, "", a, loop)
	n.AddGateTo(BUF, "", loop, x)
	if _, err := n.Levelize(); err == nil {
		t.Error("combinational cycle not detected")
	}
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted cyclic netlist")
	}
}

func TestValidateUndrivenNet(t *testing.T) {
	n := New("t")
	float := n.AddNet("floating")
	a := n.AddInput("a", 1)[0]
	out := n.AddGate(AND, "", a, float)
	n.AddOutput("y", []NetID{out})
	err := n.Validate()
	if err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Errorf("Validate = %v, want undriven-net error", err)
	}
}

func TestValidateOK(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 2)
	s := n.AddGate(XOR, "", a[0], a[1])
	_, q := n.AddFF("r[0]", "", s, InvalidNet, false)
	n.AddOutput("y", []NetID{q})
	if err := n.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 2)
	x := n.AddGate(AND, "", a[0], a[1])
	y := n.AddGate(NOT, "", x)
	n.AddOutput("y", []NetID{y})
	s := n.ComputeStats()
	if s.Gates != 2 || s.Inputs != 2 || s.Outputs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Levels != 2 {
		t.Errorf("Levels = %d, want 2", s.Levels)
	}
}

func TestFanoutCounts(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	x := n.AddGate(NOT, "", a)
	y := n.AddGate(AND, "", a, x)
	n.AddOutput("y", []NetID{y})
	fan := n.FanoutCounts()
	if fan[a] != 2 {
		t.Errorf("fanout(a) = %d, want 2", fan[a])
	}
	if fan[y] != 1 {
		t.Errorf("fanout(y) = %d, want 1 (primary output)", fan[y])
	}
}

func TestRegisterGroups(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	for i := 0; i < 3; i++ {
		n.AddFF("data["+string(rune('0'+i))+"]", "B", a, InvalidNet, false)
	}
	n.AddFF("ctrl", "B", a, InvalidNet, false)
	g := n.RegisterGroups()
	if len(g["data"]) != 3 {
		t.Errorf("data group has %d FFs, want 3", len(g["data"]))
	}
	if len(g["ctrl"]) != 1 {
		t.Errorf("ctrl group has %d FFs, want 1", len(g["ctrl"]))
	}
}

func TestRegisterBase(t *testing.T) {
	cases := map[string]string{
		"data[3]":   "data",
		"data":      "data",
		"a/b[10]":   "a/b",
		"[3]":       "[3]", // no base; keep as-is
		"x[1][2]":   "x[1]",
		"plain[“]”": "plain[“]”", // malformed index; unchanged is fine as long as deterministic
	}
	for in, want := range cases {
		if got := RegisterBase(in); got != want && in != "plain[“]”" {
			t.Errorf("RegisterBase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBlocks(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	n.AddGate(NOT, "B2", a)
	n.AddGate(NOT, "B1", a)
	n.AddFF("r", "B3", a, InvalidNet, false)
	got := n.Blocks()
	if len(got) != 3 || got[0] != "B1" || got[1] != "B2" || got[2] != "B3" {
		t.Errorf("Blocks() = %v", got)
	}
	counts := n.BlockGateCount()
	if counts["B1"] != 1 || counts["B2"] != 1 {
		t.Errorf("BlockGateCount = %v", counts)
	}
}

func TestFindPorts(t *testing.T) {
	n := New("t")
	n.AddInput("addr", 4)
	o := n.AddInput("x", 1)
	n.AddOutput("y", o)
	if p, ok := n.FindInput("addr"); !ok || len(p.Nets) != 4 {
		t.Error("FindInput(addr) failed")
	}
	if _, ok := n.FindInput("nope"); ok {
		t.Error("FindInput(nope) should fail")
	}
	if p, ok := n.FindOutput("y"); !ok || len(p.Nets) != 1 {
		t.Error("FindOutput(y) failed")
	}
	if _, ok := n.FindOutput("nope"); ok {
		t.Error("FindOutput(nope) should fail")
	}
}

func TestSetFFDAndEnable(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	id, q := n.AddFF("r", "", a, InvalidNet, true)
	inv := n.AddGate(NOT, "", q)
	n.SetFFD(id, inv)
	n.SetFFEnable(id, a)
	if n.FFs[id].D != inv || n.FFs[id].Enable != a {
		t.Error("SetFFD/SetFFEnable did not update")
	}
	if !n.FFs[id].ResetVal {
		t.Error("ResetVal lost")
	}
}

func TestStringSummary(t *testing.T) {
	n := New("dsg")
	a := n.AddInput("a", 1)[0]
	n.AddOutput("y", []NetID{n.AddGate(NOT, "", a)})
	s := n.String()
	if !strings.Contains(s, "dsg") || !strings.Contains(s, "1 gates") {
		t.Errorf("String() = %q", s)
	}
}

func TestPruneRemovesDeadGates(t *testing.T) {
	n := New("p")
	a := n.AddInput("a", 1)[0]
	live := n.AddGate(NOT, "", a)
	deadMid := n.AddGate(NOT, "", a)
	_ = n.AddGate(AND, "", deadMid, a) // dead chain of 2
	n.AddOutput("y", []NetID{live})
	removed := n.Prune()
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	if len(n.Gates) != 1 || n.Gates[0].Output != live {
		t.Errorf("live gate lost: %+v", n.Gates)
	}
	if g, ok := n.DriverGate(live); !ok || g.ID != 0 {
		t.Error("driver map not rebuilt")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("Validate after prune: %v", err)
	}
}

func TestPruneKeepsFFInputLogic(t *testing.T) {
	n := New("p")
	a := n.AddInput("a", 1)[0]
	inv := n.AddGate(NOT, "", a)
	n.AddFF("r", "", inv, InvalidNet, false)
	if removed := n.Prune(); removed != 0 {
		t.Errorf("FF input logic pruned: removed = %d", removed)
	}
}

func TestPruneHonorsKeep(t *testing.T) {
	n := New("p")
	a := n.AddInput("a", 1)[0]
	toPeriph := n.AddGate(NOT, "", a)
	n.MarkKeep(toPeriph)
	if removed := n.Prune(); removed != 0 {
		t.Errorf("kept net's driver pruned: removed = %d", removed)
	}
}

func TestPruneTransitiveChain(t *testing.T) {
	n := New("p")
	a := n.AddInput("a", 1)[0]
	x := n.AddGate(NOT, "", a)
	y := n.AddGate(NOT, "", x)
	z := n.AddGate(NOT, "", y)
	n.AddOutput("y", []NetID{z})
	if removed := n.Prune(); removed != 0 {
		t.Errorf("live chain pruned: removed = %d", removed)
	}
}

func TestValidateAccumulatesAllViolations(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	f1 := n.AddNet("float1")
	f2 := n.AddNet("float2")
	g := n.AddGate(AND, "", a, f1)
	n.AddFF("r[0]", "", f2, InvalidNet, false)
	n.AddOutput("y", []NetID{g})
	n.AddOutput("z", []NetID{n.AddNet("float3")})
	err := n.Validate()
	if err == nil {
		t.Fatal("Validate accepted a netlist with three undriven reads")
	}
	for _, want := range []string{"float1", "float2", "float3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("accumulated error misses %s violation: %v", want, err)
		}
	}
}

func TestValidateKept(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	s := n.AddGate(NOT, "", a)
	n.MarkKeep(s)
	kept := n.Kept()
	if len(kept) != 1 || kept[0] != s {
		t.Fatalf("Kept() = %v, want [%d]", kept, s)
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// netlist's keep set.
	kept[0] = InvalidNet
	if k := n.Kept(); len(k) != 1 || k[0] != s {
		t.Fatalf("Kept() returned the internal slice")
	}
}

// TestGateAndFFReaders checks the forward adjacency: a gate appears once
// per input pin that reads a net, and a flip-flop under both its D and
// its Enable net.
func TestGateAndFFReaders(t *testing.T) {
	n := New("t")
	a := n.AddInput("a", 1)[0]
	b := n.AddInput("b", 1)[0]
	x := n.AddGate(AND, "", a, a)
	y := n.AddGate(OR, "", a, b)
	ff, _ := n.AddFF("r", "", x, y, false)
	gx, _ := n.DriverGate(x)
	gy, _ := n.DriverGate(y)

	gr := n.GateReaders()
	if len(gr) != len(n.Nets) {
		t.Fatalf("GateReaders covers %d nets, want %d", len(gr), len(n.Nets))
	}
	if want := []GateID{gx.ID, gx.ID, gy.ID}; len(gr[a]) != 3 || gr[a][0] != want[0] || gr[a][1] != want[1] || gr[a][2] != want[2] {
		t.Errorf("readers of a = %v, want %v", gr[a], want)
	}
	if len(gr[b]) != 1 || gr[b][0] != gy.ID {
		t.Errorf("readers of b = %v, want [%d]", gr[b], gy.ID)
	}
	if len(gr[x]) != 0 {
		t.Errorf("x is read by no gate, got %v", gr[x])
	}

	fr := n.FFReaders()
	if len(fr[x]) != 1 || fr[x][0] != ff || len(fr[y]) != 1 || fr[y][0] != ff {
		t.Errorf("FF readers: x %v, y %v, want [%d] each", fr[x], fr[y], ff)
	}
	if len(fr[a]) != 0 {
		t.Errorf("a is sampled by no FF, got %v", fr[a])
	}
}

// TestAddExternal checks a peripheral-driven port: one net per bit,
// bit-indexed names on a bus, driven for validation, yet no gate or FF
// driver.
func TestAddExternal(t *testing.T) {
	n := New("t")
	bus := n.AddExternal("rdata", 3)
	one := n.AddExternal("ready", 1)
	if len(bus) != 3 || len(n.Externals) != 2 || n.Externals[0].Name != "rdata" {
		t.Fatalf("externals = %+v", n.Externals)
	}
	if got := n.NetName(bus[2]); got != "rdata[2]" {
		t.Errorf("bus bit name = %q, want rdata[2]", got)
	}
	if got := n.NetName(one[0]); got != "ready" {
		t.Errorf("single-bit name = %q, want ready", got)
	}
	for _, id := range append(bus, one...) {
		if !n.IsDriven(id) {
			t.Errorf("external net %s not driven", n.NetName(id))
		}
		if _, ok := n.DriverGate(id); ok {
			t.Errorf("external net %s has a gate driver", n.NetName(id))
		}
		if _, ok := n.DriverFF(id); ok {
			t.Errorf("external net %s has an FF driver", n.NetName(id))
		}
	}
	n.AddOutput("o", []NetID{n.AddGate(AND, "", bus[0], one[0])})
	if err := n.Validate(); err != nil {
		t.Errorf("netlist reading externals must validate: %v", err)
	}
}
