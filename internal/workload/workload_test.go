package workload

import (
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func TestTraceAddHoldsValues(t *testing.T) {
	tr := NewTrace("a", "b")
	tr.Add(map[string]uint64{"a": 3, "b": 7})
	tr.Add(map[string]uint64{"a": 4})
	tr.AddIdle(2)
	if tr.Cycles() != 4 {
		t.Fatalf("Cycles = %d", tr.Cycles())
	}
	if tr.Value(1, "b") != 7 {
		t.Errorf("b not held: %d", tr.Value(1, "b"))
	}
	if tr.Value(3, "a") != 4 {
		t.Errorf("idle did not hold a: %d", tr.Value(3, "a"))
	}
}

func TestTraceUnknownPortPanics(t *testing.T) {
	tr := NewTrace("a")
	defer func() {
		if recover() == nil {
			t.Error("unknown port did not panic")
		}
	}()
	tr.Add(map[string]uint64{"zz": 1})
}

func TestTraceApplyTo(t *testing.T) {
	n := netlist.New("d")
	a := n.AddInput("a", 4)
	n.AddOutput("y", a)
	s, _ := sim.New(n)
	tr := NewTrace("a")
	tr.Add(map[string]uint64{"a": 9})
	tr.ApplyTo(s, 0)
	s.Eval()
	if v, _ := s.ReadOutput("y"); v != 9 {
		t.Errorf("applied value = %d", v)
	}
}

func TestTraceConcat(t *testing.T) {
	a := NewTrace("p")
	a.Add(map[string]uint64{"p": 1})
	b := NewTrace("p")
	b.Add(map[string]uint64{"p": 2})
	a.Concat(b)
	if a.Cycles() != 2 || a.Value(1, "p") != 2 {
		t.Error("Concat failed")
	}
	c := NewTrace("q")
	defer func() {
		if recover() == nil {
			t.Error("Concat over different ports did not panic")
		}
	}()
	a.Concat(c)
}

func TestRandomTraceDeterministic(t *testing.T) {
	w := map[string]int{"a": 8, "b": 3}
	t1 := Random(xrand.New(1), []string{"a", "b"}, w, 50)
	t2 := Random(xrand.New(1), []string{"a", "b"}, w, 50)
	for c := 0; c < 50; c++ {
		if t1.Value(c, "a") != t2.Value(c, "a") || t1.Value(c, "b") != t2.Value(c, "b") {
			t.Fatal("random trace not deterministic")
		}
		if t1.Value(c, "b") >= 8 {
			t.Fatalf("width not respected: b = %d", t1.Value(c, "b"))
		}
	}
}

// marchDetects runs a March sequence against a behavioral memory with an
// injected stuck-at cell and reports whether any read observes wrong
// data.
func marchDetects(ops []MemOp, faultAddr uint64, stuckBit uint64, stuckVal uint64) bool {
	mem := map[uint64]uint64{}
	apply := func(a uint64) {
		if v, ok := mem[a]; ok && a == faultAddr {
			if stuckVal == 1 {
				mem[a] = v | stuckBit
			} else {
				mem[a] = v &^ stuckBit
			}
		}
	}
	for _, op := range ops {
		switch op.Kind {
		case OpWrite:
			mem[op.Addr] = op.Data
			apply(op.Addr)
		case OpRead:
			if got, ok := mem[op.Addr]; ok && got != op.Data {
				return true
			}
		}
	}
	return false
}

func TestMarchXStructure(t *testing.T) {
	ops := MarchX(4, 0, 8)
	// N + 2N + 2N + N = 6N
	if len(ops) != 24 {
		t.Fatalf("March X length = %d, want 24", len(ops))
	}
	if !marchDetects(ops, 2, 0x10, 1) {
		t.Error("March X missed a stuck-at-1 cell")
	}
}

func TestRandomOps(t *testing.T) {
	rng := xrand.New(3)
	ops := RandomOps(rng, 200, 16, 8, 0.5)
	if len(ops) != 200 {
		t.Fatalf("len = %d", len(ops))
	}
	writes := 0
	for _, op := range ops {
		if op.Addr >= 16 {
			t.Fatalf("addr out of range: %d", op.Addr)
		}
		if op.Kind == OpWrite {
			writes++
			if op.Data > 0xFF {
				t.Fatalf("data out of width: %#x", op.Data)
			}
		}
	}
	if writes < 60 || writes > 140 {
		t.Errorf("write mix off: %d/200", writes)
	}
}

// TestMarchXDetectsStuckAtCells sweeps every single stuck-at-0 and
// stuck-at-1 cell of a 16x8 memory: March X, the BIST algorithm of the
// memory sub-system, must observe each one.
func TestMarchXDetectsStuckAtCells(t *testing.T) {
	ops := MarchX(16, 0, 8)
	for addr := uint64(0); addr < 16; addr++ {
		for bit := 0; bit < 8; bit++ {
			for _, v := range []uint64{0, 1} {
				if !marchDetects(ops, addr, 1<<uint(bit), v) {
					t.Fatalf("March X missed SA%d at addr %d bit %d", v, addr, bit)
				}
			}
		}
	}
}

// TestInputPorts resolves a trace's ports against a netlist in trace
// order and rejects a port the netlist lacks.
func TestInputPorts(t *testing.T) {
	n := netlist.New("d")
	n.AddInput("a", 2)
	n.AddInput("b", 1)
	ports, err := NewTrace("b", "a").InputPorts(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 || ports[0].Name != "b" || ports[1].Name != "a" || len(ports[1].Nets) != 2 {
		t.Errorf("ports = %+v, want b then a", ports)
	}
	if _, err := NewTrace("a", "c").InputPorts(n); err == nil || !strings.Contains(err.Error(), `"c"`) {
		t.Errorf("missing port error = %v, want one naming \"c\"", err)
	}
}
