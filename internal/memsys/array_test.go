package memsys

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// arrayHarness builds a bare netlist exposing the array ports directly.
func arrayHarness(t *testing.T, aw, ww int) (*sim.Simulator, *Array) {
	t.Helper()
	n := netlist.New("arr")
	addr := n.AddInput("addr", aw)
	wdata := n.AddInput("wdata", ww)
	we := n.AddInput("we", 1)
	re := n.AddInput("re", 1)
	rdata := n.AddExternal("rdata", ww)
	n.AddOutput("rdata", rdata)
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	arr := NewArray(aw, ww, addr, wdata, we[0], re[0], rdata)
	s.AttachPeripheral(arr)
	return s, arr
}

func (a *Array) testWrite(s *sim.Simulator, addr, data uint64) {
	s.SetInput("addr", addr)
	s.SetInput("wdata", data)
	s.SetInput("we", 1)
	s.SetInput("re", 0)
	s.Eval()
	s.Step()
}

func (a *Array) testRead(s *sim.Simulator, addr uint64) uint64 {
	s.SetInput("addr", addr)
	s.SetInput("we", 0)
	s.SetInput("re", 1)
	s.Eval()
	s.Step()
	v, _ := s.ReadOutput("rdata")
	return v
}

func TestArrayReadWrite(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.testWrite(s, 3, 0xAB)
	arr.testWrite(s, 7, 0xCD)
	if got := arr.testRead(s, 3); got != 0xAB {
		t.Errorf("read(3) = %#x", got)
	}
	if got := arr.testRead(s, 7); got != 0xCD {
		t.Errorf("read(7) = %#x", got)
	}
	if arr.Peek(3) != 0xAB {
		t.Error("Peek mismatch")
	}
}

func TestArraySoftError(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.testWrite(s, 2, 0x0F)
	if err := arr.Inject(ArrayFault{Kind: SoftError, A: 2, Bit: 4}); err != nil {
		t.Fatal(err)
	}
	if got := arr.testRead(s, 2); got != 0x1F {
		t.Errorf("after SEU read = %#x, want 0x1f", got)
	}
	if err := arr.Inject(ArrayFault{Kind: SoftError, A: 2, Bit: 99}); err == nil {
		t.Error("out-of-range SEU accepted")
	}
}

func TestArrayCellStuckAt(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.Inject(ArrayFault{Kind: CellSA, A: 1, Bit: 0, Val: 0})
	arr.testWrite(s, 1, 0xFF)
	if got := arr.testRead(s, 1); got != 0xFE {
		t.Errorf("stuck-at-0 cell read = %#x, want 0xfe", got)
	}
	arr.Inject(ArrayFault{Kind: CellSA, A: 1, Bit: 7, Val: 1})
	arr.testWrite(s, 1, 0x00)
	if got := arr.testRead(s, 1); got != 0x80 {
		t.Errorf("stuck-at-1 cell read = %#x, want 0x80", got)
	}
}

func TestArrayWrongAddressing(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.testWrite(s, 4, 0x44)
	arr.testWrite(s, 9, 0x99)
	arr.Inject(ArrayFault{Kind: WrongAddressing, A: 4, B: 9})
	if got := arr.testRead(s, 4); got != 0x99 {
		t.Errorf("redirected read = %#x, want 0x99", got)
	}
	// Write redirection too.
	arr.testWrite(s, 4, 0x11)
	if arr.Peek(9) != 0x11 {
		t.Errorf("redirected write went to %#x/%#x", arr.Peek(4), arr.Peek(9))
	}
	if arr.Peek(4) != 0x44 {
		t.Error("original word modified despite redirect")
	}
	// "No addressing": partner out of range drops the access.
	s, arr = arrayHarness(t, 4, 8)
	arr.testWrite(s, 4, 0x44)
	arr.Inject(ArrayFault{Kind: WrongAddressing, A: 4, B: 1 << 20})
	if got := arr.testRead(s, 4); got != 0 {
		t.Errorf("dropped read returned %#x, want 0", got)
	}
}

func TestArrayMultipleAddressing(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.Inject(ArrayFault{Kind: MultipleAddressing, A: 2, B: 6})
	arr.testWrite(s, 2, 0x5A)
	if arr.Peek(2) != 0x5A || arr.Peek(6) != 0x5A {
		t.Errorf("multiple addressing: %#x/%#x", arr.Peek(2), arr.Peek(6))
	}
}

func TestArrayCoupling(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.testWrite(s, 8, 0x00)
	arr.Inject(ArrayFault{Kind: Coupling, A: 3, B: 8, Bit: 2})
	arr.testWrite(s, 3, 0xFF)
	if arr.Peek(8) != 0x04 {
		t.Errorf("coupling victim = %#x, want 0x04", arr.Peek(8))
	}
	arr.testWrite(s, 3, 0x00) // second aggressor write flips back
	if arr.Peek(8) != 0x00 {
		t.Errorf("coupling victim after 2nd write = %#x", arr.Peek(8))
	}
}

func TestArrayAddrLineStuck(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.testWrite(s, 0b0101, 0x55)
	arr.testWrite(s, 0b0001, 0x11)
	arr.Inject(ArrayFault{Kind: AddrLineSA, A: 2, Val: 0}) // line 2 stuck 0
	if got := arr.testRead(s, 0b0101); got != 0x11 {
		t.Errorf("addr-line-stuck read = %#x, want 0x11 (aliased)", got)
	}
	if err := arr.Inject(ArrayFault{Kind: AddrLineSA, A: 9}); err == nil {
		t.Error("out-of-range address line accepted")
	}
}

func TestArrayFaultKindStrings(t *testing.T) {
	for k, want := range map[ArrayFaultKind]string{
		CellSA: "cell stuck-at", SoftError: "soft error",
		WrongAddressing: "wrong addressing", MultipleAddressing: "multiple addressing",
		Coupling: "cell coupling", AddrLineSA: "address line stuck-at",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
