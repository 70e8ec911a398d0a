package rtl

import (
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// evalComb builds a pure combinational module via build, drives the named
// inputs and returns the named output.
func evalComb(t *testing.T, build func(m *Module), ins map[string]uint64, out string) uint64 {
	t.Helper()
	m := NewModule("t")
	build(m)
	n, err := m.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s, err := sim.New(n)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	for name, v := range ins {
		s.SetInput(name, v)
	}
	s.Eval()
	v, hasX := s.ReadOutput(out)
	if hasX {
		t.Fatalf("output %s has X bits", out)
	}
	return v
}

func TestConstAndOutput(t *testing.T) {
	got := evalComb(t, func(m *Module) {
		m.Output("y", m.Const(8, 0xA5))
	}, nil, "y")
	if got != 0xA5 {
		t.Errorf("const = %#x, want 0xa5", got)
	}
}

func TestBitwiseOps(t *testing.T) {
	build := func(m *Module) {
		a := m.Input("a", 8)
		b := m.Input("b", 8)
		m.Output("and", m.And(a, b))
		m.Output("xor", m.Xor(a, b))
		m.Output("xnor", m.Xnor(a, b))
		m.Output("not", m.Not(a))
	}
	m := NewModule("t")
	build(m)
	n := m.MustFinish()
	s, _ := sim.New(n)
	for _, c := range [][2]uint64{{0x0F, 0x33}, {0xFF, 0x00}, {0xA5, 0x5A}} {
		s.SetInput("a", c[0])
		s.SetInput("b", c[1])
		s.Eval()
		checks := map[string]uint64{
			"and":  c[0] & c[1],
			"xor":  c[0] ^ c[1],
			"xnor": ^(c[0] ^ c[1]) & 0xFF,
			"not":  ^c[0] & 0xFF,
		}
		for name, want := range checks {
			if got, _ := s.ReadOutput(name); got != want {
				t.Errorf("a=%#x b=%#x: %s = %#x, want %#x", c[0], c[1], name, got, want)
			}
		}
	}
}

func TestAddProperty(t *testing.T) {
	m := NewModule("add")
	a := m.Input("a", 16)
	b := m.Input("b", 16)
	sum, carry := m.Add(a, b)
	m.Output("sum", sum)
	m.Output("carry", Bus{carry})
	n := m.MustFinish()
	s, _ := sim.New(n)

	f := func(x, y uint16) bool {
		s.SetInput("a", uint64(x))
		s.SetInput("b", uint64(y))
		s.Eval()
		sum, _ := s.ReadOutput("sum")
		c, _ := s.ReadOutput("carry")
		full := uint64(x) + uint64(y)
		return sum == full&0xFFFF && c == full>>16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIncProperty(t *testing.T) {
	m := NewModule("inc")
	a := m.Input("a", 8)
	sum, carry := m.Inc(a)
	m.Output("sum", sum)
	m.Output("carry", Bus{carry})
	n := m.MustFinish()
	s, _ := sim.New(n)
	for x := 0; x < 256; x++ {
		s.SetInput("a", uint64(x))
		s.Eval()
		sum, _ := s.ReadOutput("sum")
		c, _ := s.ReadOutput("carry")
		if sum != uint64(x+1)&0xFF || c != uint64(x+1)>>8 {
			t.Fatalf("Inc(%d) = %d carry %d", x, sum, c)
		}
	}
}

func TestComparisons(t *testing.T) {
	m := NewModule("cmp")
	a := m.Input("a", 6)
	b := m.Input("b", 6)
	m.Output("eq", Bus{m.Eq(a, b)})
	m.Output("ne", Bus{m.Ne(a, b)})
	m.Output("ult", Bus{m.Ult(a, b)})
	m.Output("ule", Bus{m.Ule(a, b)})
	m.Output("eqc", Bus{m.EqConst(a, 37)})
	n := m.MustFinish()
	s, _ := sim.New(n)
	f := func(x, y uint8) bool {
		xa, yb := uint64(x&63), uint64(y&63)
		s.SetInput("a", xa)
		s.SetInput("b", yb)
		s.Eval()
		eq, _ := s.ReadOutput("eq")
		ne, _ := s.ReadOutput("ne")
		ult, _ := s.ReadOutput("ult")
		ule, _ := s.ReadOutput("ule")
		eqc, _ := s.ReadOutput("eqc")
		return eq == b2u(xa == yb) && ne == b2u(xa != yb) &&
			ult == b2u(xa < yb) && ule == b2u(xa <= yb) &&
			eqc == b2u(xa == 37)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestReductionsAndParity(t *testing.T) {
	m := NewModule("red")
	a := m.Input("a", 7)
	m.Output("rand", Bus{m.ReduceAnd(a)})
	m.Output("ror", Bus{m.ReduceOr(a)})
	m.Output("rxor", Bus{m.ReduceXor(a)})
	n := m.MustFinish()
	s, _ := sim.New(n)
	for _, x := range []uint64{0, 0x7F, 0x55, 1, 0x40} {
		s.SetInput("a", x)
		s.Eval()
		rAnd, _ := s.ReadOutput("rand")
		rOr, _ := s.ReadOutput("ror")
		rXor, _ := s.ReadOutput("rxor")
		wantAnd := b2u(x == 0x7F)
		wantOr := b2u(x != 0)
		pop := 0
		for i := 0; i < 7; i++ {
			pop += int(x >> uint(i) & 1)
		}
		wantXor := uint64(pop % 2)
		if rAnd != wantAnd || rOr != wantOr || rXor != wantXor {
			t.Errorf("x=%#x: and=%d or=%d xor=%d, want %d %d %d", x, rAnd, rOr, rXor, wantAnd, wantOr, wantXor)
		}
	}
}

func TestMuxBus(t *testing.T) {
	m := NewModule("mux")
	sel := m.Input("sel", 1)
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	m.Output("y", m.Mux(sel[0], a, b))
	n := m.MustFinish()
	s, _ := sim.New(n)
	s.SetInput("a", 3)
	s.SetInput("b", 12)
	s.SetInput("sel", 0)
	s.Eval()
	if v, _ := s.ReadOutput("y"); v != 3 {
		t.Errorf("mux sel=0: %d, want 3", v)
	}
	s.SetInput("sel", 1)
	s.Eval()
	if v, _ := s.ReadOutput("y"); v != 12 {
		t.Errorf("mux sel=1: %d, want 12", v)
	}
}

func TestDecode(t *testing.T) {
	m := NewModule("dec")
	a := m.Input("a", 3)
	onehot := m.Decode(a)
	m.Output("onehot", onehot)
	n := m.MustFinish()
	s, _ := sim.New(n)
	for x := uint64(0); x < 8; x++ {
		s.SetInput("a", x)
		s.Eval()
		oh, _ := s.ReadOutput("onehot")
		if oh != 1<<x {
			t.Errorf("decode(%d) = %#x, want %#x", x, oh, uint64(1)<<x)
		}
	}
}

func TestRegistersAndEnable(t *testing.T) {
	m := NewModule("regs")
	d := m.Input("d", 4)
	en := m.Input("en", 1)
	q1 := m.RegNext("plain", d, 0)
	q2 := m.RegEn("gated", d, en[0], 0xF)
	m.Output("q1", q1)
	m.Output("q2", q2)
	n := m.MustFinish()
	s, _ := sim.New(n)
	if v, _ := s.ReadOutput("q2"); v != 0xF {
		t.Errorf("reset value q2 = %#x, want 0xF", v)
	}
	s.SetInput("d", 5)
	s.SetInput("en", 0)
	s.Eval()
	s.Step()
	q1v, _ := s.ReadOutput("q1")
	q2v, _ := s.ReadOutput("q2")
	if q1v != 5 || q2v != 0xF {
		t.Errorf("after clock en=0: q1=%d q2=%#x, want 5, 0xF", q1v, q2v)
	}
	s.SetInput("en", 1)
	s.Eval()
	s.Step()
	if v, _ := s.ReadOutput("q2"); v != 5 {
		t.Errorf("after clock en=1: q2=%d, want 5", v)
	}
}

func TestRegFeedbackCounter(t *testing.T) {
	m := NewModule("cnt")
	r := m.NewReg("count", 4, 0)
	next, _ := m.Inc(r.Q)
	r.SetD(next)
	m.Output("count", r.Q)
	n := m.MustFinish()
	s, _ := sim.New(n)
	s.Run(11)
	if v, _ := s.ReadOutput("count"); v != 11 {
		t.Errorf("counter = %d, want 11", v)
	}
}

func TestBlockScoping(t *testing.T) {
	m := NewModule("b")
	a := m.Input("a", 1)
	m.PushBlock("TOP")
	m.InBlock("SUB", func() {
		m.Output("y", Bus{m.NotBit(a[0])})
		if m.Block() != "TOP/SUB" {
			t.Errorf("Block() = %q", m.Block())
		}
	})
	m.PopBlock()
	n := m.MustFinish()
	if n.Gates[0].Block != "TOP/SUB" {
		t.Errorf("gate block = %q", n.Gates[0].Block)
	}
}

func TestUnbalancedScopeFails(t *testing.T) {
	m := NewModule("b")
	m.PushBlock("X")
	a := m.Input("a", 1)
	m.Output("y", a)
	if _, err := m.Finish(); err == nil {
		t.Error("Finish accepted unbalanced scope")
	}
}

func TestPopEmptyScopePanics(t *testing.T) {
	m := NewModule("b")
	defer func() {
		if recover() == nil {
			t.Error("PopBlock on empty scope did not panic")
		}
	}()
	m.PopBlock()
}

func TestConcatSlice(t *testing.T) {
	m := NewModule("cc")
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	cat := Concat(a, b)
	if len(cat) != 8 {
		t.Fatalf("concat len = %d", len(cat))
	}
	m.Output("hi", cat.Slice(4, 8))
	n := m.MustFinish()
	s, _ := sim.New(n)
	s.SetInput("a", 0x9)
	s.SetInput("b", 0x6)
	s.Eval()
	if v, _ := s.ReadOutput("hi"); v != 0x6 {
		t.Errorf("slice = %#x, want 6", v)
	}
}

func TestSingleBitHelpers(t *testing.T) {
	m := NewModule("sb")
	a := m.Input("a", 1)[0]
	b := m.Input("b", 1)[0]
	m.Output("and1", Bus{m.AndBit(a)})
	m.Output("or1", Bus{m.OrBit(b)})
	m.Output("xor1", Bus{m.XorBit(a)})
	m.Output("mux", Bus{m.MuxBit(a, b, m.High())})
	n := m.MustFinish()
	s, _ := sim.New(n)
	s.SetInput("a", 1)
	s.SetInput("b", 0)
	s.Eval()
	want := map[string]uint64{"and1": 1, "or1": 0, "xor1": 1, "mux": 1}
	for name, w := range want {
		if got, _ := s.ReadOutput(name); got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	m := NewModule("wm")
	a := m.Input("a", 4)
	b := m.Input("b", 3)
	for name, fn := range map[string]func(){
		"And":  func() { m.And(a, b) },
		"Mux":  func() { m.Mux(a[0], a, b) },
		"Add":  func() { m.Add(a, b) },
		"Ult":  func() { m.Ult(a, b) },
		"SetD": func() { m.NewReg("r", 4, 0).SetD(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s width mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestReduceEmptyPanics(t *testing.T) {
	m := NewModule("re")
	defer func() {
		if recover() == nil {
			t.Error("reduction over empty bus did not panic")
		}
	}()
	m.ReduceOr(Bus{})
}

// Ensure gates carry no X when fed constants through every helper; guards
// against accidentally reading unnamed uninitialized nets.
func TestNoXPropagationFromConsts(t *testing.T) {
	m := NewModule("nx")
	c := m.Const(8, 0x3C)
	sum, _ := m.Add(c, m.Const(8, 1))
	m.Output("y", sum)
	n := m.MustFinish()
	s, _ := sim.New(n)
	s.Eval()
	if v, hasX := s.ReadOutput("y"); hasX || v != 0x3D {
		t.Errorf("y = %#x hasX=%v", v, hasX)
	}
}

var _ = netlist.InvalidNet // keep import if helpers change

func TestConstantFolding(t *testing.T) {
	m := NewModule("cf")
	a := m.Input("a", 1)[0]
	// All of these must fold without emitting gates that read const nets.
	cases := map[string]netlist.NetID{
		"and0": m.AndBit(a, m.Low()),           // = 0
		"and1": m.AndBit(a, m.High()),          // = a
		"or1":  m.OrBit(a, m.High()),           // = 1
		"or0":  m.OrBit(a, m.Low()),            // = a
		"xor0": m.XorBit(a, m.Low()),           // = a
		"xor1": m.XorBit(a, m.High()),          // = !a
		"muxc": m.MuxBit(m.High(), a, m.Low()), // = 0
		"muxs": m.MuxBit(a, m.Low(), m.High()), // = a
		"muxi": m.MuxBit(a, m.High(), m.Low()), // = !a
		"muxa": m.MuxBit(a, m.Low(), a),        // = a & a (no const-pair fold)
	}
	for name, id := range cases {
		m.Output(name, Bus{id})
	}
	n := m.MustFinish()
	// No gate may read a const net after folding.
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			if _, ok := n.IsConst(in); ok {
				t.Errorf("gate %d (%v) reads a constant input after folding", g.ID, g.Type)
			}
		}
	}
	s, _ := sim.New(n)
	for _, av := range []uint64{0, 1} {
		s.SetInput("a", av)
		s.Eval()
		want := map[string]uint64{
			"and0": 0, "and1": av, "or1": 1, "or0": av,
			"xor0": av, "xor1": 1 - av,
			"muxc": 0, "muxs": av, "muxi": 1 - av, "muxa": av,
		}
		for name, w := range want {
			if got, _ := s.ReadOutput(name); got != w {
				t.Errorf("a=%d: %s = %d, want %d", av, name, got, w)
			}
		}
	}
}

func TestFoldingKeepsAdderTestable(t *testing.T) {
	// With folding, the 4-bit adder contains no redundant constant logic:
	// every net must be reachable from inputs.
	m := NewModule("a4")
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	sum, c := m.Add(a, b)
	m.Output("s", append(sum, c))
	n := m.MustFinish()
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			if _, ok := n.IsConst(in); ok {
				t.Fatalf("adder gate reads constant after folding")
			}
		}
	}
}

// TestParity checks the even-parity bit against a popcount.
func TestParity(t *testing.T) {
	m := NewModule("par")
	a := m.Input("a", 9)
	m.Output("p", Bus{m.Parity(a)})
	n := m.MustFinish()
	s, _ := sim.New(n)
	f := func(x uint16) bool {
		v := uint64(x) & 0x1FF
		s.SetInput("a", v)
		s.Eval()
		got, _ := s.ReadOutput("p")
		pop := 0
		for i := 0; i < 9; i++ {
			pop += int(v >> uint(i) & 1)
		}
		return got == uint64(pop%2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExternalAndKeep checks the two hooks a behavioral peripheral
// needs: an external bus is a valid driver for logic, and Keep saves
// nets the peripheral samples from dead-logic pruning.
func TestExternalAndKeep(t *testing.T) {
	build := func(keep bool) *netlist.Netlist {
		m := NewModule("ram")
		a := m.Input("a", 2)
		rd := m.External("rdata", 2)
		m.Output("y", m.Xor(a, rd))
		wdata := m.Not(a) // read only by the peripheral
		if keep {
			m.Keep(wdata)
		}
		return m.MustFinish()
	}
	kept, pruned := build(true), build(false)
	if len(kept.Externals) != 1 || kept.Externals[0].Name != "rdata" || len(kept.Externals[0].Nets) != 2 {
		t.Fatalf("externals = %+v", kept.Externals)
	}
	if len(kept.Gates) != len(pruned.Gates)+2 {
		t.Errorf("kept %d gates, unkept %d: Keep must save the 2 NOT gates", len(kept.Gates), len(pruned.Gates))
	}
}
