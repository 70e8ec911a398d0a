// Package simc compiles a netlist into a flat word-parallel bytecode
// program and evaluates it with a tight interpreter loop. Each of the
// 64 bit-lanes of a machine word is an independent simulation, so one
// pass over the program advances 64 experiments at once.
//
// The package provides one compiler and two interpreters over the same
// program:
//
//   - Machine evaluates full three-valued (0/1/X) logic over two planes
//     per net — a value plane and an X-mask plane — and is the kernel
//     behind the batched injection campaigns in internal/inject. It is
//     differentially tested against the serial internal/sim oracle.
//   - BinMachine evaluates pure binary logic over a single plane and is
//     the kernel behind the PPSFP fault simulator in internal/faultsim.
//
// Why X needs a second plane: a single uint64 per net can encode two
// logic levels, not three. The encoding here keeps `val AND x == 0` as
// an invariant — a lane whose X bit is set has its value bit forced to
// zero — so Kleene semantics reduce to short branch-free mask formulas
// (e.g. AND2: x_out = (ax|bx) & (av|ax) & (bv|bx): the output is
// unknown only if some input is unknown and no known input is 0).
//
// Faults attach through per-batch op patching: registering a force or
// bridge point splices a FORCE/BRIDGE op into the instruction stream
// right after the target net's driver (or ahead of the program for
// source nets), and rewires pin forces through scratch slots. The base
// program stays branch-free — an unforced net costs zero extra work,
// and a registered-but-unarmed force (all-zero lane mask) is a cheap
// identity op.
package simc

import (
	"fmt"

	"repro/internal/netlist"
)

type opcode uint8

// Opcodes of the compiled program. All gate ops are 1- or 2-input;
// wider gates are decomposed into chains through scratch slots at
// compile time (Kleene and binary AND/OR/XOR are associative, so the
// chain is exact). MUX2 keeps its 3 operands: a=select, b=input when
// select is 0, c=input when select is 1.
const (
	opBUF opcode = iota
	opNOT
	opAND2
	opOR2
	opNAND2
	opNOR2
	opXOR2
	opXNOR2
	opMUX2
	// opFORCE: out = a overridden by force slot b (per-lane masks).
	opFORCE
	// opBRIDGE: capture slot a's driven planes into bridge-net b, then
	// apply bridge-net b's overlay to slot a (three-valued Machine only).
	opBRIDGE
)

// op is one bytecode instruction: an opcode, an output slot and up to
// three operand slots (b doubles as the force-slot / bridge-net index
// for opFORCE / opBRIDGE).
type op struct {
	code    opcode
	out     int32
	a, b, c int32
}

// pinSite locates where one gate input pin is consumed in the program:
// the op index and which operand field (0=a, 1=b, 2=c) reads it.
type pinSite struct {
	opIdx   int32
	operand uint8
}

func pinKeyOf(g netlist.GateID, pin int) uint64 {
	return uint64(uint32(g))<<16 | uint64(uint16(pin))
}

// Program is a compiled netlist: a levelized, branch-free op stream
// over net-indexed slots. Programs are immutable once compiled and
// safe to share across machines and goroutines.
type Program struct {
	n    *netlist.Netlist
	ops  []op
	nets int32 // slots [0, nets) are netlist nets
	// slots is the total slot count including decomposition scratch.
	slots int32

	// driverOp maps each gate-driven net to the index of the op that
	// finally writes it; -1 marks source nets (inputs, externals, FF
	// outputs, constants) and undriven nets.
	driverOp []int32
	// pinSites maps (gate, pin) onto the consuming operand.
	pinSites map[uint64]pinSite

	// Source tables for the per-pass load phase.
	portNets []int32 // input + external port nets, flattened
	ffQ      []int32
	ffD      []int32
	ffEn     []int32 // -1 = always enabled
}

// Ops returns the instruction count (for diagnostics and tests).
func (p *Program) Ops() int { return len(p.ops) }

// Compile levelizes the netlist and emits its bytecode program.
func Compile(n *netlist.Netlist) (*Program, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	p := &Program{
		n:        n,
		nets:     int32(len(n.Nets)),
		slots:    int32(len(n.Nets)),
		driverOp: make([]int32, len(n.Nets)),
		pinSites: make(map[uint64]pinSite, 4*len(n.Gates)),
		ops:      make([]op, 0, len(n.Gates)+len(n.Gates)/4),
	}
	for i := range p.driverOp {
		p.driverOp[i] = -1
	}
	for _, gid := range order {
		if err := p.emitGate(&n.Gates[gid]); err != nil {
			return nil, err
		}
	}
	for _, port := range n.Inputs {
		for _, id := range port.Nets {
			p.portNets = append(p.portNets, int32(id))
		}
	}
	for _, port := range n.Externals {
		for _, id := range port.Nets {
			p.portNets = append(p.portNets, int32(id))
		}
	}
	p.ffQ = make([]int32, len(n.FFs))
	p.ffD = make([]int32, len(n.FFs))
	p.ffEn = make([]int32, len(n.FFs))
	for i := range n.FFs {
		ff := &n.FFs[i]
		p.ffQ[i] = int32(ff.Q)
		p.ffD[i] = int32(ff.D)
		p.ffEn[i] = int32(ff.Enable) // InvalidNet is -1
	}
	return p, nil
}

// emitGate decomposes one gate into 1-/2-input ops, recording the pin
// consumption sites for pin-fault patching.
func (p *Program) emitGate(g *netlist.Gate) error {
	k := len(g.Inputs)
	if k < 1 {
		return fmt.Errorf("simc: gate %d (%v) has no inputs", g.ID, g.Type)
	}
	emit := func(o op) int32 {
		p.ops = append(p.ops, o)
		return int32(len(p.ops) - 1)
	}
	setPin := func(pin int, idx int32, operand uint8) {
		p.pinSites[pinKeyOf(g.ID, pin)] = pinSite{opIdx: idx, operand: operand}
	}
	out := int32(g.Output)
	var chain, last opcode
	switch g.Type {
	case netlist.BUF:
		chain, last = opBUF, opBUF
	case netlist.NOT:
		chain, last = opBUF, opNOT
	case netlist.AND:
		chain, last = opAND2, opAND2
	case netlist.NAND:
		chain, last = opAND2, opNAND2
	case netlist.OR:
		chain, last = opOR2, opOR2
	case netlist.NOR:
		chain, last = opOR2, opNOR2
	case netlist.XOR:
		chain, last = opXOR2, opXOR2
	case netlist.XNOR:
		chain, last = opXOR2, opXNOR2
	case netlist.MUX2:
		if k != 3 {
			return fmt.Errorf("simc: MUX2 gate %d has %d inputs, want 3", g.ID, k)
		}
		idx := emit(op{code: opMUX2, out: out,
			a: int32(g.Inputs[0]), b: int32(g.Inputs[1]), c: int32(g.Inputs[2])})
		setPin(0, idx, 0)
		setPin(1, idx, 1)
		setPin(2, idx, 2)
		p.driverOp[g.Output] = idx
		return nil
	default:
		return fmt.Errorf("simc: unknown gate type %v", g.Type)
	}
	if g.Type == netlist.BUF || g.Type == netlist.NOT || k == 1 {
		// A 1-input AND/OR/XOR is a buffer; NAND/NOR/XNOR an inverter.
		code := opBUF
		if last == opNAND2 || last == opNOR2 || last == opXNOR2 || last == opNOT {
			code = opNOT
		}
		idx := emit(op{code: code, out: out, a: int32(g.Inputs[0])})
		setPin(0, idx, 0)
		p.driverOp[g.Output] = idx
		return nil
	}
	acc := int32(g.Inputs[0])
	for i := 1; i < k; i++ {
		code, dst := chain, p.slots
		if i == k-1 {
			code, dst = last, out
		} else {
			p.slots++
		}
		idx := emit(op{code: code, out: dst, a: acc, b: int32(g.Inputs[i])})
		if i == 1 {
			setPin(0, idx, 0)
		}
		setPin(i, idx, 1)
		acc = dst
	}
	p.driverOp[g.Output] = int32(len(p.ops) - 1)
	return nil
}

// netPatch and pinPatch record registered fault attachment points in
// registration order.
type netPatch struct {
	net int32
	ref int32
}

type pinPatch struct {
	site pinSite
	ref  int32
}

// patchOps splices FORCE and BRIDGE ops into a copy of the base
// program: after each patched net's driver op (or ahead of the program
// for source nets, which load before any op runs), with a net's force
// applied before its bridge capture — the same order the serial
// interpreter uses. Pin forces allocate a scratch slot, interpose a
// FORCE op and rewire the consuming operand. Returns the patched
// stream and the total slot count.
func patchOps(p *Program, nets []netPatch, pins []pinPatch, bridgeNets []int32) ([]op, int32) {
	var prefix []op
	after := make(map[int32][]op)
	addNetOp(p, &prefix, after, nets, bridgeNets)
	before := make(map[int32][]pinPatch)
	for _, pp := range pins {
		before[pp.site.opIdx] = append(before[pp.site.opIdx], pp)
	}
	slots := p.slots
	out := make([]op, 0, len(p.ops)+len(prefix)+len(nets)+len(pins)+len(bridgeNets))
	out = append(out, prefix...)
	for i := range p.ops {
		o := p.ops[i]
		if pb, ok := before[int32(i)]; ok {
			for _, ins := range pb {
				src := operandOf(&o, ins.site.operand)
				out = append(out, op{code: opFORCE, out: slots, a: src, b: ins.ref})
				setOperand(&o, ins.site.operand, slots)
				slots++
			}
		}
		out = append(out, o)
		if pa, ok := after[int32(i)]; ok {
			out = append(out, pa...)
		}
	}
	return out, slots
}

// addNetOp distributes the per-net FORCE then BRIDGE ops to the prefix
// (source nets) or the after-driver insertion lists.
func addNetOp(p *Program, prefix *[]op, after map[int32][]op, nets []netPatch, bridgeNets []int32) {
	place := func(net int32, o op) {
		if d := p.driverOp[net]; d >= 0 {
			after[d] = append(after[d], o)
		} else {
			*prefix = append(*prefix, o)
		}
	}
	for _, np := range nets {
		place(np.net, op{code: opFORCE, out: np.net, a: np.net, b: np.ref})
	}
	for bi, net := range bridgeNets {
		place(net, op{code: opBRIDGE, out: net, a: net, b: int32(bi)})
	}
}

func operandOf(o *op, operand uint8) int32 {
	switch operand {
	case 0:
		return o.a
	case 1:
		return o.b
	default:
		return o.c
	}
}

func setOperand(o *op, operand uint8, slot int32) {
	switch operand {
	case 0:
		o.a = slot
	case 1:
		o.b = slot
	default:
		o.c = slot
	}
}
