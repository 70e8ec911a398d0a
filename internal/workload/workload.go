// Package workload generates the stimuli the validation flow injects
// faults under: memory test algorithms (March C-, March X, checkerboard,
// walking ones), random traffic, and application-like access profiles.
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

// Value returns the value of a port at a cycle.
func (t *Trace) Value(cycle int, port string) uint64 {
	return t.Vecs[cycle][t.index[port]]
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

// MarchElementOrder is ascending or descending address order.
type MarchElementOrder uint8

// Address orders for March elements.
const (
	Up MarchElementOrder = iota
	Down
)

// MarchCMinus generates the March C- algorithm over `words` addresses
// with the given data background:
//
//	⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)
//
// Reads are emitted as OpRead (a checker compares data elsewhere);
// "0" is the background pattern, "1" its complement.
func MarchCMinus(words int, background uint64, dataWidth int) []MemOp {
	mask := widthMask(dataWidth)
	b0 := background & mask
	b1 := ^background & mask
	var ops []MemOp
	forEach := func(order MarchElementOrder, f func(addr uint64)) {
		if order == Up {
			for a := 0; a < words; a++ {
				f(uint64(a))
			}
		} else {
			for a := words - 1; a >= 0; a-- {
				f(uint64(a))
			}
		}
	}
	forEach(Up, func(a uint64) { ops = append(ops, MemOp{OpWrite, a, b0}) })
	forEach(Up, func(a uint64) {
		ops = append(ops, MemOp{OpRead, a, b0}, MemOp{OpWrite, a, b1})
	})
	forEach(Up, func(a uint64) {
		ops = append(ops, MemOp{OpRead, a, b1}, MemOp{OpWrite, a, b0})
	})
	forEach(Down, func(a uint64) {
		ops = append(ops, MemOp{OpRead, a, b0}, MemOp{OpWrite, a, b1})
	})
	forEach(Down, func(a uint64) {
		ops = append(ops, MemOp{OpRead, a, b1}, MemOp{OpWrite, a, b0})
	})
	forEach(Down, func(a uint64) { ops = append(ops, MemOp{OpRead, a, b0}) })
	return ops
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

// MarchSS generates the March SS algorithm (detects all simple static
// faults including write-disturb and read-destructive ones):
//
//	⇕(w0); ⇑(r0,r0,w0,r0,w1); ⇑(r1,r1,w1,r1,w0);
//	⇓(r0,r0,w0,r0,w1); ⇓(r1,r1,w1,r1,w0); ⇕(r0)
func MarchSS(words int, background uint64, dataWidth int) []MemOp {
	mask := widthMask(dataWidth)
	b0 := background & mask
	b1 := ^background & mask
	var ops []MemOp
	element := func(up bool, rd1, wr1, rd2, wr2 uint64) {
		apply := func(a uint64) {
			ops = append(ops,
				MemOp{OpRead, a, rd1}, MemOp{OpRead, a, rd1},
				MemOp{OpWrite, a, wr1},
				MemOp{OpRead, a, rd2}, MemOp{OpWrite, a, wr2})
		}
		if up {
			for a := 0; a < words; a++ {
				apply(uint64(a))
			}
		} else {
			for a := words - 1; a >= 0; a-- {
				apply(uint64(a))
			}
		}
	}
	for a := 0; a < words; a++ {
		ops = append(ops, MemOp{OpWrite, uint64(a), b0})
	}
	element(true, b0, b0, b0, b1)
	element(true, b1, b1, b1, b0)
	element(false, b0, b0, b0, b1)
	element(false, b1, b1, b1, b0)
	for a := 0; a < words; a++ {
		ops = append(ops, MemOp{OpRead, uint64(a), b0})
	}
	return ops
}

// Checkerboard writes alternating patterns then reads them back.
func Checkerboard(words int, dataWidth int) []MemOp {
	mask := widthMask(dataWidth)
	pat := uint64(0x5555555555555555) & mask
	var ops []MemOp
	for a := 0; a < words; a++ {
		d := pat
		if a%2 == 1 {
			d = ^pat & mask
		}
		ops = append(ops, MemOp{OpWrite, uint64(a), d})
	}
	for a := 0; a < words; a++ {
		d := pat
		if a%2 == 1 {
			d = ^pat & mask
		}
		ops = append(ops, MemOp{OpRead, uint64(a), d})
	}
	return ops
}

// WalkingOnes writes and reads a walking-1 pattern at each address.
func WalkingOnes(words int, dataWidth int) []MemOp {
	var ops []MemOp
	for bit := 0; bit < dataWidth; bit++ {
		d := uint64(1) << uint(bit)
		for a := 0; a < words; a++ {
			ops = append(ops, MemOp{OpWrite, uint64(a), d})
		}
		for a := 0; a < words; a++ {
			ops = append(ops, MemOp{OpRead, uint64(a), d})
		}
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

// MemPorts names the DUT ports a memory-op trace drives. Priv, when
// non-empty, is driven with PrivValue on every access (MPU attribute).
type MemPorts struct {
	Req       string // request strobe, 1 bit
	WE        string // write enable, 1 bit
	Addr      string
	WData     string
	Priv      string
	PrivValue uint64
	// GapCycles idle cycles inserted after each operation (lets a
	// pipelined DUT drain; 0 issues back-to-back).
	GapCycles int
}

// OpsToTrace renders abstract memory operations into a port-level trace.
func OpsToTrace(ops []MemOp, p MemPorts) *Trace {
	ports := []string{p.Req, p.WE, p.Addr, p.WData}
	if p.Priv != "" {
		ports = append(ports, p.Priv)
	}
	t := NewTrace(ports...)
	for _, op := range ops {
		m := map[string]uint64{p.Req: 1, p.WE: 0, p.Addr: op.Addr, p.WData: op.Data}
		switch op.Kind {
		case OpWrite:
			m[p.WE] = 1
		case OpIdle:
			m[p.Req] = 0
		}
		if p.Priv != "" {
			m[p.Priv] = p.PrivValue
		}
		t.Add(m)
		if p.GapCycles > 0 {
			idle := map[string]uint64{p.Req: 0, p.WE: 0}
			for i := 0; i < p.GapCycles; i++ {
				t.Add(idle)
			}
		}
	}
	// Trailing idle so the last response drains.
	t.Add(map[string]uint64{p.Req: 0, p.WE: 0})
	t.Add(nil)
	return t
}
