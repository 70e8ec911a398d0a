// Package frcpu is the second case study: a small processing unit in
// the direction the paper's conclusion points to ("the complete
// analysis of fault-robust microcontrollers for automotive
// applications"). It implements an 8-bit accumulator core gate-level
// and, optionally, a dual-core lockstep arrangement with a hardware
// comparator — the processing-unit counterpart of the memory
// sub-system's SEC-DED, assessed with the same FMEA flow against the
// IEC 61508 processing-unit failure-mode catalog.
package frcpu

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/rtl"
)

// ISA: 8-bit instructions, high nibble opcode, low nibble operand.
const (
	OpNOP  = 0x0
	OpLDI  = 0x1 // acc = imm
	OpADD  = 0x2 // acc += imm
	OpXORI = 0x3 // acc ^= imm
	OpSTA  = 0x4 // reg[imm&3] = acc
	OpLDA  = 0x5 // acc = reg[imm&3]
	OpJMP  = 0x6 // pc = imm
	OpJNZ  = 0x7 // if acc != 0: pc = imm
	OpOUT  = 0x8 // out = acc (strobed)
	OpSHL  = 0x9 // acc <<= 1
	OpNOT  = 0xA // acc = ^acc
)

// Program is the 16-instruction ROM image.
type Program [16]byte

// Instr assembles one instruction.
func Instr(op, imm int) byte { return byte(op<<4 | imm&0x0F) }

// DemoProgram is the default workload: a counting/accumulate loop that
// exercises the ALU, the register file, both jumps and the output port.
func DemoProgram() Program {
	return Program{
		Instr(OpLDI, 5),  // 0: acc = 5
		Instr(OpSTA, 0),  // 1: r0 = 5
		Instr(OpADD, 3),  // 2: acc = 8
		Instr(OpXORI, 9), // 3: acc = 1
		Instr(OpSTA, 1),  // 4: r1 = 1
		Instr(OpOUT, 0),  // 5: out = 1
		Instr(OpLDA, 0),  // 6: acc = 5
		Instr(OpSHL, 0),  // 7: acc = 10
		Instr(OpNOT, 0),  // 8: acc = 0xF5
		Instr(OpOUT, 0),  // 9: out = 0xF5
		Instr(OpADD, 11), // 10: acc = 0x00 (wraps)
		Instr(OpJNZ, 5),  // 11: not taken (acc == 0)
		Instr(OpLDA, 1),  // 12: acc = 1
		Instr(OpOUT, 0),  // 13: out = 1
		Instr(OpJMP, 0),  // 14: loop forever
		Instr(OpNOP, 0),  // 15
	}
}

// Config selects the protection arrangement.
type Config struct {
	Name     string
	Program  Program
	Lockstep bool // second core + hardware comparator
}

// PlainConfig is the unprotected single core.
func PlainConfig() Config {
	return Config{Name: "frcpu-plain", Program: DemoProgram()}
}

// LockstepConfig is the dual-core lockstep arrangement.
func LockstepConfig() Config {
	return Config{Name: "frcpu-lockstep", Program: DemoProgram(), Lockstep: true}
}

// Design is a built processing unit.
type Design struct {
	Cfg Config
	N   *netlist.Netlist
}

// coreOut are the nets one core exposes for comparison/observation.
type coreOut struct {
	out    rtl.Bus
	strobe netlist.NetID
	pc     rtl.Bus
	acc    rtl.Bus
}

// Build elaborates the design.
func Build(cfg Config) (*Design, error) {
	m := rtl.NewModule(cfg.Name)
	// A run input gates the whole pipeline (gives the DUT one primary
	// input so workloads can hold it in reset-like idle).
	run := m.Input("run", 1)[0]

	a := buildCore(m, "CPU_A", cfg.Program, run)
	m.Output("out", a.out)
	m.Output("strobe", rtl.Bus{a.strobe})
	m.Output("pc", a.pc)

	if cfg.Lockstep {
		b := buildCore(m, "CPU_B", cfg.Program, run)
		m.PushBlock("LOCKSTEP")
		mismatch := m.OrBit(
			m.OrBit(m.Ne(a.out, b.out), m.XorBit(a.strobe, b.strobe)),
			m.OrBit(m.Ne(a.pc, b.pc), m.Ne(a.acc, b.acc)))
		// Sticky alarm: a lockstep divergence latches until reset.
		fail := m.NewReg("lockstep_fail", 1, 0)
		fail.SetD(rtl.Bus{m.OrBit(fail.Q[0], mismatch)})
		m.PopBlock()
		m.Output("alarm_lockstep", fail.Q)
	}
	n, err := m.Finish()
	if err != nil {
		return nil, err
	}
	return &Design{Cfg: cfg, N: n}, nil
}

// buildCore elaborates one accumulator core under the given block.
func buildCore(m *rtl.Module, block string, prog Program, run netlist.NetID) coreOut {
	m.PushBlock(block)
	defer m.PopBlock()

	pc := m.NewReg("pc", 4, 0)
	acc := m.NewReg("acc", 8, 0)
	outReg := m.NewReg("out", 8, 0)
	strobe := m.NewReg("strobe", 1, 0)
	regs := make([]*rtl.Reg, 4)
	for i := range regs {
		regs[i] = m.NewReg(fmt.Sprintf("r%d", i), 8, 0)
	}

	// Instruction ROM: one-hot PC select over the baked program bits.
	m.PushBlock("ROM")
	pcSel := m.Decode(pc.Q)
	instr := make(rtl.Bus, 8)
	for bit := 0; bit < 8; bit++ {
		var taps rtl.Bus
		for addr := 0; addr < 16; addr++ {
			if prog[addr]>>uint(bit)&1 == 1 {
				taps = append(taps, pcSel[addr])
			}
		}
		if len(taps) == 0 {
			instr[bit] = m.Low()
		} else {
			instr[bit] = m.ReduceOr(taps)
		}
	}
	m.PopBlock()

	imm := instr.Slice(0, 4)
	opcode := instr.Slice(4, 8)
	m.PushBlock("DECODE")
	ops := m.Decode(opcode)
	m.PopBlock()

	immExt := rtl.Concat(imm, m.Const(4, 0))

	m.PushBlock("ALU")
	sum, _ := m.Add(acc.Q, immExt)
	xored := m.Xor(acc.Q, immExt)
	shifted := rtl.Concat(rtl.Bus{m.Low()}, acc.Q.Slice(0, 7))
	inverted := m.Not(acc.Q)
	m.PopBlock()

	// Register file read mux.
	m.PushBlock("REGFILE")
	regSel := m.Decode(imm.Slice(0, 2))
	regRead := make(rtl.Bus, 8)
	for bit := 0; bit < 8; bit++ {
		var taps rtl.Bus
		for r := 0; r < 4; r++ {
			taps = append(taps, m.AndBit(regSel[r], regs[r].Q[bit]))
		}
		regRead[bit] = m.ReduceOr(taps)
	}
	for r := 0; r < 4; r++ {
		regs[r].SetD(acc.Q)
		regs[r].SetEnable(m.AndBit(run, m.AndBit(ops[OpSTA], regSel[r])))
	}
	m.PopBlock()

	// Accumulator next-state mux chain.
	m.PushBlock("CTRL")
	accNext := immExt
	accNext = m.Mux(ops[OpADD], accNext, sum)
	accNext = m.Mux(ops[OpXORI], accNext, xored)
	accNext = m.Mux(ops[OpLDA], accNext, regRead)
	accNext = m.Mux(ops[OpSHL], accNext, shifted)
	accNext = m.Mux(ops[OpNOT], accNext, inverted)
	accWrite := m.OrBit(ops[OpLDI],
		m.OrBit(ops[OpADD],
			m.OrBit(ops[OpXORI],
				m.OrBit(ops[OpLDA],
					m.OrBit(ops[OpSHL], ops[OpNOT])))))
	acc.SetD(accNext)
	acc.SetEnable(m.AndBit(run, accWrite))

	// PC next: taken jumps load imm, everything else increments.
	nz := m.ReduceOr(acc.Q)
	taken := m.OrBit(ops[OpJMP], m.AndBit(ops[OpJNZ], nz))
	pcInc, _ := m.Inc(pc.Q)
	pc.SetD(m.Mux(taken, pcInc, imm))
	pc.SetEnable(run)

	outReg.SetD(acc.Q)
	outReg.SetEnable(m.AndBit(run, ops[OpOUT]))
	strobe.SetD(rtl.Bus{m.AndBit(run, ops[OpOUT])})
	m.PopBlock()

	return coreOut{out: outReg.Q, strobe: strobe.Q[0], pc: pc.Q, acc: acc.Q}
}

// RefState is the golden interpreter state.
type RefState struct {
	PC   byte
	Acc  byte
	Regs [4]byte
	Out  byte
	// Strobe is true during the cycle following an OUT.
	Strobe bool
}

// StepRef advances the golden interpreter by one instruction, matching
// the gate-level core cycle for cycle (when run is held high).
func StepRef(st *RefState, prog Program) {
	in := prog[st.PC&0x0F]
	op := in >> 4
	imm := in & 0x0F
	st.Strobe = false
	nextPC := (st.PC + 1) & 0x0F
	switch op {
	case OpLDI:
		st.Acc = imm
	case OpADD:
		st.Acc += imm
	case OpXORI:
		st.Acc ^= imm
	case OpSTA:
		st.Regs[imm&3] = st.Acc
	case OpLDA:
		st.Acc = st.Regs[imm&3]
	case OpJMP:
		nextPC = imm
	case OpJNZ:
		if st.Acc != 0 {
			nextPC = imm
		}
	case OpOUT:
		st.Out = st.Acc
		st.Strobe = true
	case OpSHL:
		st.Acc <<= 1
	case OpNOT:
		st.Acc = ^st.Acc
	}
	st.PC = nextPC
}
