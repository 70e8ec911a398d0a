// Package workload generates the stimuli the validation flow injects
// faults under: the March X memory test, random traffic, and the port
// traces that drive them.
//
// A workload is materialized as a Trace: per-cycle assignments to named
// primary-input ports. The same trace drives both the three-valued
// injection simulator and the bit-parallel fault simulator, so measured
// coverage numbers refer to one well-defined stimulus (the paper's
// requirement that Workload, Operational Profile, Fault List and final
// measures are uniquely correlated).
package workload

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Trace is a sequence of input vectors over a fixed set of ports.
type Trace struct {
	Ports []string
	Vecs  [][]uint64

	index map[string]int
}

// NewTrace creates an empty trace over the given ports.
func NewTrace(ports ...string) *Trace {
	t := &Trace{Ports: ports, index: make(map[string]int, len(ports))}
	for i, p := range ports {
		t.index[p] = i
	}
	return t
}

// Cycles returns the trace length.
func (t *Trace) Cycles() int { return len(t.Vecs) }

// Add appends one cycle of port assignments; unnamed ports hold their
// previous value (0 on the first cycle).
func (t *Trace) Add(assign map[string]uint64) {
	vec := make([]uint64, len(t.Ports))
	if len(t.Vecs) > 0 {
		copy(vec, t.Vecs[len(t.Vecs)-1])
	}
	for name, v := range assign {
		i, ok := t.index[name]
		if !ok {
			panic(fmt.Sprintf("workload: trace has no port %q", name))
		}
		vec[i] = v
	}
	t.Vecs = append(t.Vecs, vec)
}

// AddIdle appends n cycles holding the previous values.
func (t *Trace) AddIdle(n int) {
	for i := 0; i < n; i++ {
		t.Add(nil)
	}
}

// ApplyTo drives the simulator's primary inputs with the vector of one
// cycle (without clocking).
func (t *Trace) ApplyTo(s *sim.Simulator, cycle int) {
	vec := t.Vecs[cycle]
	for i, port := range t.Ports {
		s.SetInput(port, vec[i])
	}
}

// InputPorts resolves the trace's ports against the netlist's primary
// inputs once, in trace order. A port the netlist lacks is an error —
// skipping it would simulate a partially driven design — worded for
// the caller to prefix with its package.
func (t *Trace) InputPorts(n *netlist.Netlist) ([]netlist.Port, error) {
	ports := make([]netlist.Port, len(t.Ports))
	for i, name := range t.Ports {
		p, ok := n.FindInput(name)
		if !ok {
			return nil, fmt.Errorf("trace port %q not in netlist", name)
		}
		ports[i] = p
	}
	return ports, nil
}

// Concat appends another trace over the same port set.
func (t *Trace) Concat(other *Trace) {
	if len(other.Ports) != len(t.Ports) {
		panic("workload: Concat over different port sets")
	}
	for i := range t.Ports {
		if t.Ports[i] != other.Ports[i] {
			panic("workload: Concat over different port sets")
		}
	}
	t.Vecs = append(t.Vecs, other.Vecs...)
}

// Random returns a trace of uniformly random vectors. widths maps each
// port to its bit width; ports drive fresh random values every cycle.
func Random(rng *xrand.RNG, ports []string, widths map[string]int, cycles int) *Trace {
	t := NewTrace(ports...)
	for c := 0; c < cycles; c++ {
		m := make(map[string]uint64, len(ports))
		for _, p := range ports {
			m[p] = rng.Bits(widths[p])
		}
		t.Add(m)
	}
	return t
}

// MemOpKind distinguishes memory operations.
type MemOpKind uint8

// Read, Write and Idle memory operations.
const (
	OpRead MemOpKind = iota
	OpWrite
	OpIdle
)

// MemOp is one abstract memory access.
type MemOp struct {
	Kind MemOpKind
	Addr uint64
	Data uint64
}

// MarchX generates March X: ⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0).
func MarchX(words int, background uint64, dataWidth int) []MemOp {
	mask := widthMask(dataWidth)
	b0 := background & mask
	b1 := ^background & mask
	var ops []MemOp
	for a := 0; a < words; a++ {
		ops = append(ops, MemOp{OpWrite, uint64(a), b0})
	}
	for a := 0; a < words; a++ {
		ops = append(ops, MemOp{OpRead, uint64(a), b0}, MemOp{OpWrite, uint64(a), b1})
	}
	for a := words - 1; a >= 0; a-- {
		ops = append(ops, MemOp{OpRead, uint64(a), b1}, MemOp{OpWrite, uint64(a), b0})
	}
	for a := 0; a < words; a++ {
		ops = append(ops, MemOp{OpRead, uint64(a), b0})
	}
	return ops
}

// RandomOps generates a random read/write mix over the address space;
// writeFrac in [0,1] is the write probability.
func RandomOps(rng *xrand.RNG, count, words, dataWidth int, writeFrac float64) []MemOp {
	ops := make([]MemOp, count)
	for i := range ops {
		addr := uint64(rng.Intn(words))
		if rng.Float64() < writeFrac {
			ops[i] = MemOp{OpWrite, addr, rng.Bits(dataWidth)}
		} else {
			ops[i] = MemOp{OpRead, addr, 0}
		}
	}
	return ops
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}
