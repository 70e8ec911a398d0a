package faultsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// buildAdder returns a 4-bit registered adder: s <= a+b.
func buildAdder(t testing.TB) *netlist.Netlist {
	m := rtl.NewModule("adder")
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	sum, carry := m.Add(a, b)
	q := m.RegNext("sum", rtl.Concat(sum, rtl.Bus{carry}), 0)
	m.Output("s", q)
	n, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func obsNets(t testing.TB, n *netlist.Netlist, port string) []netlist.NetID {
	p, ok := n.FindOutput(port)
	if !ok {
		t.Fatalf("no output %q", port)
	}
	return p.Nets
}

func TestRejectsPeripheralDesigns(t *testing.T) {
	n := netlist.New("p")
	ext := n.AddExternal("rdata", 4)
	n.AddOutput("y", ext)
	if _, err := New(n); err == nil {
		t.Error("engine accepted a design with externals")
	}
}

func TestRejectsNonStuckAt(t *testing.T) {
	n := buildAdder(t)
	e, _ := New(n)
	tr := workload.Random(xrand.New(1), []string{"a", "b"}, map[string]int{"a": 4, "b": 4}, 4)
	if _, err := e.Run(tr, obsNets(t, n, "s"), nil, []faults.Fault{faults.FFFlip(0)}); err == nil {
		t.Error("Run accepted a transient fault")
	}
}

// TestAgainstSerialSimulator cross-checks the bit-parallel engine against
// the three-valued serial simulator fault by fault. This is the central
// correctness property of the fault simulator.
func TestAgainstSerialSimulator(t *testing.T) {
	n := buildAdder(t)
	u := faults.StuckAtUniverse(n)
	tr := workload.Random(xrand.New(99), []string{"a", "b"}, map[string]int{"a": 4, "b": 4}, 20)
	obs := obsNets(t, n, "s")

	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(tr, obs, nil, u.All)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference.
	golden := serialOutputs(t, n, tr, nil, obs)
	for i, f := range u.All {
		faulty := serialOutputs(t, n, tr, &f, obs)
		det := false
		for c := range golden {
			if golden[c] != faulty[c] {
				det = true
				break
			}
		}
		if det != res.PerFault[i].Func {
			t.Errorf("fault %s: parallel=%v serial=%v", f.Describe(n), res.PerFault[i].Func, det)
		}
	}
	if res.AnyDet == 0 || res.AnyDet == res.Total {
		t.Logf("coverage = %v (%d/%d)", res.Coverage(), res.AnyDet, res.Total)
	}
}

// serialOutputs runs the trace on the 3-valued simulator, optionally with
// one fault applied, and returns per-cycle observation values.
func serialOutputs(t *testing.T, n *netlist.Netlist, tr *workload.Trace, f *faults.Fault, obs []netlist.NetID) []uint64 {
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

func TestExhaustiveCoverageOnAdder(t *testing.T) {
	n := buildAdder(t)
	u := faults.StuckAtUniverse(n)
	// Exhaustive input patterns: all 256 combinations.
	tr := workload.NewTrace("a", "b")
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			tr.Add(map[string]uint64{"a": a, "b": b})
		}
	}
	tr.AddIdle(1)
	e, _ := New(n)
	res, err := e.Run(tr, obsNets(t, n, "s"), nil, u.Reps)
	if err != nil {
		t.Fatal(err)
	}
	// An adder is fully testable: exhaustive patterns must catch all
	// collapsed stuck-ats.
	if res.Coverage() < 1.0 {
		var missed []string
		for i, d := range res.PerFault {
			if !d.Func && !d.Diag {
				missed = append(missed, u.Reps[i].Describe(n))
			}
		}
		t.Errorf("coverage = %v, missed: %v", res.Coverage(), missed)
	}
}

func TestDiagObservationSeparation(t *testing.T) {
	// Duplicated buffer with comparator alarm: fault in either copy flips
	// the alarm; only copy 1 feeds the functional output.
	m := rtl.NewModule("dup")
	a := m.Input("a", 4)
	c1 := m.Not(m.Not(a)) // copy 1 (two inverters)
	c2 := m.Not(m.Not(a)) // copy 2
	alarm := m.Ne(c1, c2)
	m.Output("y", c1)
	m.Output("alarm", rtl.Bus{alarm})
	n := m.MustFinish()

	// Faults: SA0 on final inverter outputs of each copy.
	fy := faults.NetSA(c1[0], false)
	fd := faults.NetSA(c2[0], false)
	tr := workload.NewTrace("a")
	tr.Add(map[string]uint64{"a": 0xF})
	tr.Add(map[string]uint64{"a": 0x0})

	e, _ := New(n)
	res, err := e.Run(tr, obsNets(t, n, "y"), obsNets(t, n, "alarm"), []faults.Fault{fy, fd})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PerFault[0].Func || !res.PerFault[0].Diag {
		t.Errorf("copy-1 fault: %+v, want func+diag detection", res.PerFault[0])
	}
	if res.PerFault[1].Func || !res.PerFault[1].Diag {
		t.Errorf("copy-2 fault: %+v, want diag-only detection", res.PerFault[1])
	}
	if got := res.DiagOfDangerous(); got != 1.0 {
		t.Errorf("DiagOfDangerous = %v, want 1 (the dangerous fault is alarmed)", got)
	}
}

func TestChunkingBeyondOnePass(t *testing.T) {
	// More than 63 faults exercises multi-pass chunking.
	n := buildAdder(t)
	u := faults.StuckAtUniverse(n)
	if len(u.All) <= lanesPerPass {
		t.Skipf("universe too small: %d", len(u.All))
	}
	tr := workload.Random(xrand.New(5), []string{"a", "b"}, map[string]int{"a": 4, "b": 4}, 30)
	e, _ := New(n)
	obs := obsNets(t, n, "s")
	full, err := e.Run(tr, obs, nil, u.All)
	if err != nil {
		t.Fatal(err)
	}
	// Same faults one at a time must agree.
	for i := 0; i < len(u.All); i += 17 {
		single, err := e.Run(tr, obs, nil, u.All[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if single.PerFault[0] != full.PerFault[i] {
			t.Errorf("fault %d: single=%+v chunked=%+v", i, single.PerFault[0], full.PerFault[i])
		}
	}
}

func TestResultCounters(t *testing.T) {
	r := Result{PerFault: []Detection{{true, true}, {true, false}, {false, true}, {false, false}}, Total: 4}
	for _, d := range r.PerFault {
		if d.Func {
			r.FuncDet++
		}
		if d.Diag {
			r.DiagDet++
		}
		if d.Func || d.Diag {
			r.AnyDet++
		}
	}
	if r.Coverage() != 0.75 {
		t.Errorf("Coverage = %v", r.Coverage())
	}
	if r.DiagOfDangerous() != 0.5 {
		t.Errorf("DiagOfDangerous = %v", r.DiagOfDangerous())
	}
	empty := Result{}
	if empty.Coverage() != 1 || empty.DiagOfDangerous() != 1 {
		t.Error("empty result should report full coverage")
	}
}

func TestSequentialFaultPropagation(t *testing.T) {
	// Fault on a register feedback path: counter with stuck-at on the
	// increment carry. Detection requires multiple cycles.
	m := rtl.NewModule("cnt")
	r := m.NewReg("count", 4, 0)
	next, _ := m.Inc(r.Q)
	r.SetD(next)
	m.Output("count", r.Q)
	n := m.MustFinish()
	// Fault: stuck-at-0 on count[1]'s D net (bit freezes).
	f := faults.NetSA(n.FFs[1].D, false)
	tr := workload.NewTrace()
	for i := 0; i < 8; i++ {
		tr.Add(nil)
	}
	e, _ := New(n)
	res, err := e.Run(tr, obsNets(t, n, "count"), nil, []faults.Fault{f})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PerFault[0].Func {
		t.Error("stuck counter bit not detected after 8 cycles")
	}
}

func TestUnknownTracePortIsError(t *testing.T) {
	n := buildAdder(t)
	e, _ := New(n)
	tr := workload.NewTrace("a", "nosuchport")
	tr.Add(map[string]uint64{"a": 1, "nosuchport": 1})
	list := []faults.Fault{{Kind: faults.SA0, Net: 0}}
	if _, err := e.Run(tr, nil, nil, list); err == nil {
		t.Error("Run accepted an unknown trace port")
	}
}
