// Package rtl is the "synthesis front-end": a bus-level builder API that
// elaborates registers, arithmetic and control logic directly into the
// gate-level netlist IR. It plays the role of the commercial synthesis
// step in the paper's flow — what reaches the analysis tools is always
// the flat gate/FF graph.
//
// Buses are little-endian slices of nets (bit 0 first). The builder keeps
// a hierarchical block scope so every emitted gate and register records
// the sub-block it belongs to, which the zone-extraction tool later uses
// for sub-block sensible zones.
package rtl

import (
	"fmt"

	"repro/internal/netlist"
)

// Bus is an ordered set of nets, bit 0 first.
type Bus []netlist.NetID

// Module wraps a netlist under construction.
type Module struct {
	N     *netlist.Netlist
	scope []string
}

// NewModule starts a new design.
func NewModule(name string) *Module {
	return &Module{N: netlist.New(name)}
}

// PushBlock enters a hierarchical sub-block scope.
func (m *Module) PushBlock(name string) {
	m.scope = append(m.scope, name)
}

// PopBlock leaves the innermost sub-block scope.
func (m *Module) PopBlock() {
	if len(m.scope) == 0 {
		panic("rtl: PopBlock with empty scope")
	}
	m.scope = m.scope[:len(m.scope)-1]
}

// InBlock runs fn inside the named sub-block scope.
func (m *Module) InBlock(name string, fn func()) {
	m.PushBlock(name)
	defer m.PopBlock()
	fn()
}

// Block returns the current hierarchical block path.
func (m *Module) Block() string {
	if len(m.scope) == 0 {
		return ""
	}
	s := m.scope[0]
	for _, p := range m.scope[1:] {
		s += "/" + p
	}
	return s
}

func (m *Module) qualify(name string) string {
	if b := m.Block(); b != "" {
		return b + "/" + name
	}
	return name
}

// Input declares a primary input bus.
func (m *Module) Input(name string, width int) Bus {
	return Bus(m.N.AddInput(name, width))
}

// Output declares a primary output port over an existing bus.
func (m *Module) Output(name string, b Bus) {
	m.N.AddOutput(name, []netlist.NetID(b))
}

// External declares a peripheral-driven bus (e.g. a RAM read port).
func (m *Module) External(name string, width int) Bus {
	return Bus(m.N.AddExternal(name, width))
}

// Const returns a bus of constant nets encoding value (LSB first).
func (m *Module) Const(width int, value uint64) Bus {
	b := make(Bus, width)
	for i := 0; i < width; i++ {
		b[i] = m.N.ConstNet(value>>uint(i)&1 == 1)
	}
	return b
}

// Low returns a single constant-0 net, High a constant-1 net.
func (m *Module) Low() netlist.NetID  { return m.N.ConstNet(false) }
func (m *Module) High() netlist.NetID { return m.N.ConstNet(true) }

// Reg is a register bus under construction: Q is readable immediately;
// the D input is bound later with SetD (allowing feedback).
type Reg struct {
	m    *Module
	ids  []netlist.FFID
	Q    Bus
	name string
}

// NewReg declares a register bus with reset value resetVal and no enable.
// The D inputs are temporarily tied to Q (hold) until SetD is called.
func (m *Module) NewReg(name string, width int, resetVal uint64) *Reg {
	r := &Reg{m: m, name: name, ids: make([]netlist.FFID, width), Q: make(Bus, width)}
	block := m.Block()
	for i := 0; i < width; i++ {
		nm := m.qualify(name)
		if width > 1 {
			nm = fmt.Sprintf("%s[%d]", m.qualify(name), i)
		}
		// Temporarily self-feed; SetD rebinds.
		placeholder := m.N.ConstNet(resetVal>>uint(i)&1 == 1)
		id, q := m.N.AddFF(nm, block, placeholder, netlist.InvalidNet, resetVal>>uint(i)&1 == 1)
		r.ids[i] = id
		r.Q[i] = q
	}
	return r
}

// SetD binds the register's next-state input.
func (r *Reg) SetD(d Bus) {
	if len(d) != len(r.Q) {
		panic(fmt.Sprintf("rtl: SetD width mismatch on %s: %d vs %d", r.name, len(d), len(r.Q)))
	}
	for i, id := range r.ids {
		r.m.N.SetFFD(id, d[i])
	}
}

// SetEnable binds a clock-enable to every bit of the register.
func (r *Reg) SetEnable(en netlist.NetID) {
	for _, id := range r.ids {
		r.m.N.SetFFEnable(id, en)
	}
}

// RegEn declares a register that loads d when en is high, else holds.
// Implemented with a true clock-enable on the flip-flops.
func (m *Module) RegEn(name string, d Bus, en netlist.NetID, resetVal uint64) Bus {
	r := m.NewReg(name, len(d), resetVal)
	r.SetD(d)
	r.SetEnable(en)
	return r.Q
}

// RegNext declares a register that loads d every cycle.
func (m *Module) RegNext(name string, d Bus, resetVal uint64) Bus {
	r := m.NewReg(name, len(d), resetVal)
	r.SetD(d)
	return r.Q
}

// --- bitwise logic ---

// gate emits a primitive cell, constant-folding inputs tied to const
// nets the way a synthesis tool would (so the emitted netlist contains
// no untestable redundant logic around constant carry-ins etc.).
func (m *Module) gate(t netlist.GateType, ins ...netlist.NetID) netlist.NetID {
	if out, folded := m.fold(t, ins); folded {
		return out
	}
	return m.N.AddGate(t, m.Block(), ins...)
}

// fold simplifies a gate whose inputs include constants. It returns the
// replacement net and true when the gate could be elided or reduced.
func (m *Module) fold(t netlist.GateType, ins []netlist.NetID) (netlist.NetID, bool) {
	hasConst := false
	for _, in := range ins {
		if _, ok := m.N.IsConst(in); ok {
			hasConst = true
			break
		}
	}
	if !hasConst {
		return netlist.InvalidNet, false
	}
	switch t {
	case netlist.BUF:
		return ins[0], true
	case netlist.NOT:
		v, _ := m.N.IsConst(ins[0])
		return m.N.ConstNet(!v), true
	case netlist.AND, netlist.OR:
		// Controlling / identity values.
		controlling := t == netlist.OR // const1 controls OR
		var kept []netlist.NetID
		for _, in := range ins {
			if v, ok := m.N.IsConst(in); ok {
				if v == controlling {
					return m.N.ConstNet(controlling), true
				}
				continue // identity input dropped
			}
			kept = append(kept, in)
		}
		switch len(kept) {
		case 0:
			return m.N.ConstNet(!controlling), true
		case 1:
			return kept[0], true
		default:
			return m.N.AddGate(t, m.Block(), kept...), true
		}
	case netlist.XOR, netlist.XNOR:
		invert := t == netlist.XNOR
		var kept []netlist.NetID
		for _, in := range ins {
			if v, ok := m.N.IsConst(in); ok {
				if v {
					invert = !invert
				}
				continue
			}
			kept = append(kept, in)
		}
		switch len(kept) {
		case 0:
			return m.N.ConstNet(invert), true
		case 1:
			if invert {
				return m.gate(netlist.NOT, kept[0]), true
			}
			return kept[0], true
		default:
			out := m.N.AddGate(netlist.XOR, m.Block(), kept...)
			if invert {
				out = m.gate(netlist.NOT, out)
			}
			return out, true
		}
	case netlist.MUX2:
		sel, a, b := ins[0], ins[1], ins[2]
		if v, ok := m.N.IsConst(sel); ok {
			if v {
				return b, true
			}
			return a, true
		}
		va, oka := m.N.IsConst(a)
		vb, okb := m.N.IsConst(b)
		switch {
		case oka && okb && va == vb:
			return a, true
		case oka && okb: // mux(s, 0, 1) = s; mux(s, 1, 0) = !s
			if vb {
				return sel, true
			}
			return m.gate(netlist.NOT, sel), true
		case oka && !va: // mux(s, 0, b) = s & b
			return m.gate(netlist.AND, sel, b), true
		case oka && va: // mux(s, 1, b) = !s | b
			return m.gate(netlist.OR, m.gate(netlist.NOT, sel), b), true
		case okb && !vb: // mux(s, a, 0) = !s & a
			return m.gate(netlist.AND, m.gate(netlist.NOT, sel), a), true
		case okb && vb: // mux(s, a, 1) = s | a
			return m.gate(netlist.OR, sel, a), true
		}
	}
	return netlist.InvalidNet, false
}

// NotBit returns the complement of a single net.
func (m *Module) NotBit(a netlist.NetID) netlist.NetID { return m.gate(netlist.NOT, a) }

// AndBit/OrBit/XorBit combine single nets.
func (m *Module) AndBit(ins ...netlist.NetID) netlist.NetID {
	if len(ins) == 1 {
		return m.gate(netlist.BUF, ins[0])
	}
	return m.gate(netlist.AND, ins...)
}
func (m *Module) OrBit(ins ...netlist.NetID) netlist.NetID {
	if len(ins) == 1 {
		return m.gate(netlist.BUF, ins[0])
	}
	return m.gate(netlist.OR, ins...)
}
func (m *Module) XorBit(ins ...netlist.NetID) netlist.NetID {
	if len(ins) == 1 {
		return m.gate(netlist.BUF, ins[0])
	}
	return m.gate(netlist.XOR, ins...)
}

// MuxBit returns b when sel is 1, a when sel is 0.
func (m *Module) MuxBit(sel, a, b netlist.NetID) netlist.NetID {
	return m.gate(netlist.MUX2, sel, a, b)
}

func binop(m *Module, t netlist.GateType, a, b Bus, opName string) Bus {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rtl: %s width mismatch: %d vs %d", opName, len(a), len(b)))
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.gate(t, a[i], b[i])
	}
	return out
}

// And, Xor, Xnor are bitwise bus operations.
func (m *Module) And(a, b Bus) Bus  { return binop(m, netlist.AND, a, b, "And") }
func (m *Module) Xor(a, b Bus) Bus  { return binop(m, netlist.XOR, a, b, "Xor") }
func (m *Module) Xnor(a, b Bus) Bus { return binop(m, netlist.XNOR, a, b, "Xnor") }

// Not complements every bit of a bus.
func (m *Module) Not(a Bus) Bus {
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.gate(netlist.NOT, a[i])
	}
	return out
}

// Mux returns b when sel is 1, a when sel is 0, per bit.
func (m *Module) Mux(sel netlist.NetID, a, b Bus) Bus {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rtl: Mux width mismatch: %d vs %d", len(a), len(b)))
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.MuxBit(sel, a[i], b[i])
	}
	return out
}

// --- reductions ---

func (m *Module) reduce(t netlist.GateType, a Bus) netlist.NetID {
	switch len(a) {
	case 0:
		panic("rtl: reduction over empty bus")
	case 1:
		return m.gate(netlist.BUF, a[0])
	}
	// Balanced tree for realistic depth statistics.
	cur := make(Bus, len(a))
	copy(cur, a)
	for len(cur) > 1 {
		next := make(Bus, 0, (len(cur)+1)/2)
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, m.gate(t, cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0]
}

// ReduceAnd, ReduceOr, ReduceXor are tree reductions over a bus.
func (m *Module) ReduceAnd(a Bus) netlist.NetID { return m.reduce(netlist.AND, a) }
func (m *Module) ReduceOr(a Bus) netlist.NetID  { return m.reduce(netlist.OR, a) }
func (m *Module) ReduceXor(a Bus) netlist.NetID { return m.reduce(netlist.XOR, a) }

// Parity is the XOR reduction (even parity bit) of a bus.
func (m *Module) Parity(a Bus) netlist.NetID { return m.ReduceXor(a) }

// --- comparison and arithmetic ---

// Eq is high when a == b.
func (m *Module) Eq(a, b Bus) netlist.NetID {
	return m.ReduceAnd(m.Xnor(a, b))
}

// Ne is high when a != b.
func (m *Module) Ne(a, b Bus) netlist.NetID {
	return m.ReduceOr(m.Xor(a, b))
}

// EqConst is high when a equals the constant value.
func (m *Module) EqConst(a Bus, value uint64) netlist.NetID {
	terms := make(Bus, len(a))
	for i := range a {
		if value>>uint(i)&1 == 1 {
			terms[i] = a[i]
		} else {
			terms[i] = m.gate(netlist.NOT, a[i])
		}
	}
	return m.ReduceAnd(terms)
}

// Add returns a+b (ripple-carry) and the carry-out.
func (m *Module) Add(a, b Bus) (sum Bus, carry netlist.NetID) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rtl: Add width mismatch: %d vs %d", len(a), len(b)))
	}
	sum = make(Bus, len(a))
	c := m.Low()
	for i := range a {
		axb := m.gate(netlist.XOR, a[i], b[i])
		sum[i] = m.gate(netlist.XOR, axb, c)
		c = m.gate(netlist.OR,
			m.gate(netlist.AND, a[i], b[i]),
			m.gate(netlist.AND, axb, c))
	}
	return sum, c
}

// Inc returns a+1 and the carry-out.
func (m *Module) Inc(a Bus) (Bus, netlist.NetID) {
	sum := make(Bus, len(a))
	c := m.High()
	for i := range a {
		sum[i] = m.gate(netlist.XOR, a[i], c)
		c = m.gate(netlist.AND, a[i], c)
	}
	return sum, c
}

// Ult is high when unsigned a < b.
func (m *Module) Ult(a, b Bus) netlist.NetID {
	if len(a) != len(b) {
		panic("rtl: Ult width mismatch")
	}
	// lt(i) considered MSB-down: lt = (~a&b) | (a==b)&lt(lower)
	lt := m.Low()
	for i := 0; i < len(a); i++ { // LSB to MSB; rebuild each level
		bitLT := m.gate(netlist.AND, m.gate(netlist.NOT, a[i]), b[i])
		bitEQ := m.gate(netlist.XNOR, a[i], b[i])
		lt = m.gate(netlist.OR, bitLT, m.gate(netlist.AND, bitEQ, lt))
	}
	return lt
}

// Ule is high when unsigned a <= b.
func (m *Module) Ule(a, b Bus) netlist.NetID {
	return m.gate(netlist.OR, m.Ult(a, b), m.Eq(a, b))
}

// Decode expands a binary bus into a one-hot bus of width 2^len(a).
func (m *Module) Decode(a Bus) Bus {
	n := 1 << uint(len(a))
	out := make(Bus, n)
	inv := m.Not(a)
	for v := 0; v < n; v++ {
		terms := make(Bus, len(a))
		for i := range a {
			if v>>uint(i)&1 == 1 {
				terms[i] = a[i]
			} else {
				terms[i] = inv[i]
			}
		}
		out[v] = m.ReduceAnd(terms)
	}
	return out
}

// --- bus plumbing ---

// Concat concatenates buses, first argument lowest bits.
func Concat(buses ...Bus) Bus {
	var out Bus
	for _, b := range buses {
		out = append(out, b...)
	}
	return out
}

// Slice returns bits [lo, hi) of a bus.
func (b Bus) Slice(lo, hi int) Bus {
	return b[lo:hi:hi]
}

// Keep protects nets from dead-logic pruning (nets sampled by
// behavioral peripherals rather than by gates).
func (m *Module) Keep(b Bus) {
	m.N.MarkKeep([]netlist.NetID(b)...)
}

// Finish sweeps dead logic, validates and returns the completed netlist.
func (m *Module) Finish() (*netlist.Netlist, error) {
	if len(m.scope) != 0 {
		return nil, fmt.Errorf("rtl: unbalanced block scope, still inside %q", m.Block())
	}
	m.N.Prune()
	if err := m.N.Validate(); err != nil {
		return nil, err
	}
	return m.N, nil
}

// MustFinish is Finish that panics on error; for tests and examples.
func (m *Module) MustFinish() *netlist.Netlist {
	n, err := m.Finish()
	if err != nil {
		panic(err)
	}
	return n
}
