// Package sim is a levelized three-valued (0/1/X) clocked logic
// simulator over the netlist IR. It provides the forcing hooks the fault
// injector needs: stuck nets, stuck gate-input pins, and state flips in
// flip-flops, plus behavioral peripherals (the memory array model).
//
// Simulation model: a single implicit clock; each Step samples every
// flip-flop D/enable and every peripheral input at the settled pre-edge
// values, commits new state atomically, and re-evaluates the
// combinational network.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
)

// Peripheral is a behavioral synchronous component (e.g. a RAM array)
// attached to external nets of the design. On each clock edge Sample is
// called with the settled pre-edge net values, then Commit is called to
// drive the peripheral's output nets for the next cycle.
//
// SnapshotState/RestoreState make the peripheral's sequential state
// part of the simulator's Snapshot/Restore cycle. SnapshotState must
// return a self-contained copy (snapshots outlive the peripheral and
// are shared read-only across goroutines), and RestoreState must copy
// out of its argument, never alias it. Armed fault models are
// configuration, not state: like simulator forces, they survive a
// Restore untouched.
type Peripheral interface {
	Sample(get func(netlist.NetID) Value)
	Commit(set func(netlist.NetID, Value))
	SnapshotState() any
	RestoreState(state any)
}

// Simulator executes a netlist cycle by cycle.
type Simulator struct {
	n     *netlist.Netlist
	order []netlist.GateID

	values []Value // per net, settled combinational values
	state  []Value // per FF, current state
	ext    []Value // per net, peripheral-driven values (VX until driven)

	peripherals []Peripheral

	// fault forcing
	forcedNets map[netlist.NetID]Value
	forcedPins map[pinKey]Value
	bridges    []Bridge
	// bridgeDrive records, per bridged net, the value its driver produced
	// before the bridge resolution was forced onto the net.
	bridgeDrive map[netlist.NetID]Value

	cycle int64

	// cooperative cycle budget (campaign watchdog); see SetCycleBudget.
	budget     int64
	budgetUsed int64
}

// BridgeOp selects the resolution function of a bridging fault.
type BridgeOp uint8

// Wired-AND and wired-OR bridge resolution.
const (
	WiredAND BridgeOp = iota
	WiredOR
)

// Bridge couples two nets: after evaluation both nets resolve to
// op(a, b). Feedback bridges that fail to stabilize drive both nets to X.
type Bridge struct {
	A, B netlist.NetID
	Op   BridgeOp
}

type pinKey struct {
	gate netlist.GateID
	pin  int
}

// New builds a simulator; the netlist must validate.
func New(n *netlist.Netlist) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		n:          n,
		order:      order,
		values:     make([]Value, len(n.Nets)),
		state:      make([]Value, len(n.FFs)),
		ext:        make([]Value, len(n.Nets)),
		forcedNets: make(map[netlist.NetID]Value),
		forcedPins: make(map[pinKey]Value),
	}
	for i := range s.ext {
		s.ext[i] = VX
	}
	s.Reset()
	return s, nil
}

// Netlist returns the design under simulation.
func (s *Simulator) Netlist() *netlist.Netlist { return s.n }

// Cycle returns the number of clock edges applied since the last Reset.
func (s *Simulator) Cycle() int64 { return s.cycle }

// SetCycleBudget arms a cooperative per-instance cycle watchdog: every
// Step consumes one unit, and once n units are spent BudgetExceeded
// reports true and Run stops stepping. Nothing inside the simulator
// aborts on its own — the driver (the campaign supervisor) polls
// BudgetExceeded between cycles and terminates the experiment, which
// keeps the mechanism deterministic. n <= 0 disarms the budget. The
// budget survives Reset, like fault forces: a watchdog must not heal
// when the workload resets the DUT.
func (s *Simulator) SetCycleBudget(n int64) {
	s.budget = n
	s.budgetUsed = 0
}

// BudgetExceeded reports whether the armed cycle budget is spent.
func (s *Simulator) BudgetExceeded() bool {
	return s.budget > 0 && s.budgetUsed >= s.budget
}

// ChargeBudget spends n units of an armed cycle budget without
// simulating. A campaign that warm-starts from a golden snapshot
// charges the skipped prefix here, so the budget keeps counting trace
// cycles from cycle 0 and the watchdog aborts at exactly the same
// trace cycle as a cold-start run — translated, not silently moved.
func (s *Simulator) ChargeBudget(n int64) {
	if n > 0 {
		s.budgetUsed += n
	}
}

// AttachPeripheral registers a behavioral component. Peripherals are
// ticked in attach order on every Step.
func (s *Simulator) AttachPeripheral(p Peripheral) {
	s.peripherals = append(s.peripherals, p)
}

// Reset applies the global reset: every flip-flop loads its reset value,
// primary inputs become X until set, peripheral nets keep their values,
// and the combinational network settles. Fault forces survive reset
// (a permanent fault does not heal on reset).
func (s *Simulator) Reset() {
	for i := range s.n.FFs {
		s.state[i] = FromBool(s.n.FFs[i].ResetVal)
	}
	for i := range s.values {
		s.values[i] = VX
	}
	s.cycle = 0
	s.Eval()
}

// SetInput drives the named primary input port with a binary value.
func (s *Simulator) SetInput(name string, value uint64) {
	p, ok := s.n.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no input port %q", name))
	}
	for i, id := range p.Nets {
		s.setPI(id, FromBool(value>>uint(i)&1 == 1))
	}
}

// SetInputX drives every bit of the named primary input to X.
func (s *Simulator) SetInputX(name string) {
	p, ok := s.n.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no input port %q", name))
	}
	for _, id := range p.Nets {
		s.setPI(id, VX)
	}
}

// SetInputBit drives one bit of a primary input port.
func (s *Simulator) SetInputBit(name string, bit int, v Value) {
	p, ok := s.n.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no input port %q", name))
	}
	s.setPI(p.Nets[bit], v)
}

// piValues stores the externally applied primary-input values; they are
// reapplied on every Eval. Keyed lazily to keep zero-input designs cheap.
func (s *Simulator) setPI(id netlist.NetID, v Value) {
	s.ext[id] = v
}

// Net returns the settled value of a net.
func (s *Simulator) Net(id netlist.NetID) Value { return s.values[id] }

// ReadBus returns the binary value of a bus plus whether any bit was X.
func (s *Simulator) ReadBus(nets []netlist.NetID) (value uint64, hasX bool) {
	for i, id := range nets {
		switch s.values[id] {
		case V1:
			value |= 1 << uint(i)
		case VX:
			hasX = true
		}
	}
	return value, hasX
}

// ReadBusX returns the binary value of a bus plus a mask of X bits.
func (s *Simulator) ReadBusX(nets []netlist.NetID) (value, xmask uint64) {
	for i, id := range nets {
		switch s.values[id] {
		case V1:
			value |= 1 << uint(i)
		case VX:
			xmask |= 1 << uint(i)
		}
	}
	return value, xmask
}

// ReadOutput returns the binary value of the named primary output.
func (s *Simulator) ReadOutput(name string) (uint64, bool) {
	p, ok := s.n.FindOutput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no output port %q", name))
	}
	return s.ReadBus(p.Nets)
}

// FFState returns the current state of a flip-flop.
func (s *Simulator) FFState(id netlist.FFID) Value { return s.state[id] }

// SetFFState overwrites flip-flop state (fault injection into memory
// elements); takes effect at the next Eval.
func (s *Simulator) SetFFState(id netlist.FFID, v Value) {
	s.state[id] = v
}

// FlipFF inverts the current state of a flip-flop (SEU injection). An X
// state stays X.
func (s *Simulator) FlipFF(id netlist.FFID) {
	s.state[id] = s.state[id].Inv()
}

// ForceNet forces a net to a fixed value (stuck-at on a gate output /
// primary input / FF output as observed by all readers).
func (s *Simulator) ForceNet(id netlist.NetID, v Value) {
	s.forcedNets[id] = v
}

// ReleaseNet removes a net force.
func (s *Simulator) ReleaseNet(id netlist.NetID) {
	delete(s.forcedNets, id)
}

// ForcePin forces one input pin of one gate (input stuck-at; affects
// only that gate, unlike ForceNet).
func (s *Simulator) ForcePin(g netlist.GateID, pin int, v Value) {
	s.forcedPins[pinKey{g, pin}] = v
}

// ReleasePin removes a pin force.
func (s *Simulator) ReleasePin(g netlist.GateID, pin int) {
	delete(s.forcedPins, pinKey{g, pin})
}

// AddBridge installs a bridging fault between two nets.
func (s *Simulator) AddBridge(a, b netlist.NetID, op BridgeOp) {
	s.bridges = append(s.bridges, Bridge{A: a, B: b, Op: op})
	if s.bridgeDrive == nil {
		s.bridgeDrive = make(map[netlist.NetID]Value)
	}
	s.bridgeDrive[a] = VX
	s.bridgeDrive[b] = VX
}

// RemoveBridges removes all bridging faults.
func (s *Simulator) RemoveBridges() {
	s.bridges = nil
	s.bridgeDrive = nil
}

// ReleaseAll removes every force.
func (s *Simulator) ReleaseAll() {
	for k := range s.forcedNets {
		delete(s.forcedNets, k)
	}
	for k := range s.forcedPins {
		delete(s.forcedPins, k)
	}
	s.bridges = nil
	s.bridgeDrive = nil
}

// HasForces reports whether any fault force is active.
func (s *Simulator) HasForces() bool {
	return len(s.forcedNets) > 0 || len(s.forcedPins) > 0 || len(s.bridges) > 0
}

// Eval settles the combinational network from current state, inputs and
// peripheral outputs, honoring active forces and bridging faults.
func (s *Simulator) Eval() {
	s.evalOnce(nil)
	if len(s.bridges) == 0 {
		return
	}
	// Bridging faults couple nets that may sit at different logic levels;
	// iterate to a fixpoint on the *driven* values (what each net's own
	// driver produces), declaring X on oscillation. bridgeDrive is filled
	// by evalOnce for every bridged net.
	if s.bridgeDrive == nil {
		s.bridgeDrive = make(map[netlist.NetID]Value, 2*len(s.bridges))
	}
	overlay := make(map[netlist.NetID]Value, 2*len(s.bridges))
	const maxIter = 8
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, br := range s.bridges {
			var v Value
			if br.Op == WiredAND {
				v = and2(s.bridgeDrive[br.A], s.bridgeDrive[br.B])
			} else {
				v = or2(s.bridgeDrive[br.A], s.bridgeDrive[br.B])
			}
			if pa, ok := overlay[br.A]; !ok || pa != v {
				changed = true
			}
			if pb, ok := overlay[br.B]; !ok || pb != v {
				changed = true
			}
			overlay[br.A] = v
			overlay[br.B] = v
		}
		if !changed {
			return
		}
		s.evalOnce(overlay)
	}
	// Unstable (feedback through the bridge): both nets unknown.
	for _, br := range s.bridges {
		overlay[br.A] = VX
		overlay[br.B] = VX
	}
	s.evalOnce(overlay)
}

// evalOnce performs one levelized evaluation pass. overlay, when non-nil,
// supplies additional net forces (used for bridging resolution).
func (s *Simulator) evalOnce(overlay map[netlist.NetID]Value) {
	n := s.n
	// Sources.
	if n.Const0 != netlist.InvalidNet {
		s.values[n.Const0] = V0
	}
	if n.Const1 != netlist.InvalidNet {
		s.values[n.Const1] = V1
	}
	for _, p := range n.Inputs {
		for _, id := range p.Nets {
			s.values[id] = s.ext[id]
		}
	}
	for _, p := range n.Externals {
		for _, id := range p.Nets {
			s.values[id] = s.ext[id]
		}
	}
	for i := range n.FFs {
		s.values[n.FFs[i].Q] = s.state[i]
	}
	// Apply net forces on source nets before gate evaluation. Gate
	// outputs are forced during evaluation below.
	if len(s.forcedNets) > 0 {
		for id, v := range s.forcedNets {
			if _, isGate := n.DriverGate(id); !isGate {
				s.values[id] = v
			}
		}
	}
	if s.bridgeDrive != nil {
		// Record driven values of bridged source nets before overlay.
		for id := range s.bridgeDrive {
			if _, isGate := n.DriverGate(id); !isGate {
				s.bridgeDrive[id] = s.values[id]
			}
		}
	}
	if len(overlay) > 0 {
		for id, v := range overlay {
			if _, isGate := n.DriverGate(id); !isGate {
				s.values[id] = v
			}
		}
	}
	// Gates in topological order.
	for _, gid := range s.order {
		g := &n.Gates[gid]
		out := s.evalGate(g)
		if len(s.forcedNets) > 0 {
			if v, ok := s.forcedNets[g.Output]; ok {
				out = v
			}
		}
		if s.bridgeDrive != nil {
			if _, bridged := s.bridgeDrive[g.Output]; bridged {
				s.bridgeDrive[g.Output] = out
			}
		}
		if overlay != nil {
			if v, ok := overlay[g.Output]; ok {
				out = v
			}
		}
		s.values[g.Output] = out
	}
}

func (s *Simulator) pinValue(g *netlist.Gate, pin int) Value {
	if len(s.forcedPins) > 0 {
		if v, ok := s.forcedPins[pinKey{g.ID, pin}]; ok {
			return v
		}
	}
	return s.values[g.Inputs[pin]]
}

func (s *Simulator) evalGate(g *netlist.Gate) Value {
	switch g.Type {
	case netlist.BUF:
		return s.pinValue(g, 0)
	case netlist.NOT:
		return s.pinValue(g, 0).Inv()
	case netlist.AND, netlist.NAND:
		acc := V1
		for i := range g.Inputs {
			acc = and2(acc, s.pinValue(g, i))
			if acc == V0 {
				break
			}
		}
		if g.Type == netlist.NAND {
			return acc.Inv()
		}
		return acc
	case netlist.OR, netlist.NOR:
		acc := V0
		for i := range g.Inputs {
			acc = or2(acc, s.pinValue(g, i))
			if acc == V1 {
				break
			}
		}
		if g.Type == netlist.NOR {
			return acc.Inv()
		}
		return acc
	case netlist.XOR, netlist.XNOR:
		acc := V0
		for i := range g.Inputs {
			acc = xor2(acc, s.pinValue(g, i))
		}
		if g.Type == netlist.XNOR {
			return acc.Inv()
		}
		return acc
	case netlist.MUX2:
		sel := s.pinValue(g, 0)
		a := s.pinValue(g, 1)
		b := s.pinValue(g, 2)
		switch sel {
		case V0:
			return a
		case V1:
			return b
		default:
			if a == b && a != VX {
				return a
			}
			return VX
		}
	}
	panic(fmt.Sprintf("sim: unknown gate type %v", g.Type))
}

// Step applies one positive clock edge: flip-flops and peripherals sample
// the settled pre-edge values, state commits, the network re-settles.
func (s *Simulator) Step() {
	n := s.n
	// Sample next FF state.
	next := make([]Value, len(n.FFs))
	for i := range n.FFs {
		ff := &n.FFs[i]
		load := V1
		if ff.Enable != netlist.InvalidNet {
			load = s.values[ff.Enable]
		}
		switch load {
		case V1:
			next[i] = s.values[ff.D]
		case V0:
			next[i] = s.state[i]
		default: // unknown enable: state becomes unknown unless D==state
			if s.values[ff.D] == s.state[i] && s.state[i] != VX {
				next[i] = s.state[i]
			} else {
				next[i] = VX
			}
		}
	}
	// Peripherals sample pre-edge values.
	get := func(id netlist.NetID) Value { return s.values[id] }
	for _, p := range s.peripherals {
		p.Sample(get)
	}
	// Commit.
	copy(s.state, next)
	set := func(id netlist.NetID, v Value) { s.ext[id] = v }
	for _, p := range s.peripherals {
		p.Commit(set)
	}
	s.cycle++
	s.budgetUsed++
	s.Eval()
}

// Run steps the clock n times, stopping early once an armed cycle
// budget is exhausted (the caller polls BudgetExceeded to distinguish
// a finished run from a watchdog stop).
func (s *Simulator) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		if s.BudgetExceeded() {
			return
		}
		s.Step()
	}
}

// Snapshot captures the full sequential state of a simulation instant —
// flip-flop state, settled external/input net values, every attached
// peripheral's internal state and the cycle counter — so a campaign can
// warm-start faulty runs from the golden state instead of re-simulating
// from cycle 0. Snapshots are immutable once taken and safe to share
// read-only across goroutines; Restore always copies out of them.
// Fault forces and the cycle budget are deliberately not captured: a
// force is configuration that survives Reset, and the budget belongs to
// the experiment being run, not the state being restored.
type Snapshot struct {
	state  []Value
	ext    []Value
	periph []any
	cycle  int64
}

// Cycle returns the clock-edge count at which the snapshot was taken —
// the trace cycle a restored simulation resumes from.
func (sn *Snapshot) Cycle() int64 { return sn.cycle }

// Snapshot captures flip-flop state, external/input net values,
// peripheral state (via Peripheral.SnapshotState) and the cycle
// counter.
func (s *Simulator) Snapshot() *Snapshot {
	return NewSnapshot(s.cycle, slices.Clone(s.state), slices.Clone(s.ext), s.peripherals)
}

// Restore reinstates a snapshot — including peripheral state, matched
// by attach order — and re-settles the network. The receiving simulator
// must have the same shape (netlist and peripheral set) as the one the
// snapshot was taken from.
func (s *Simulator) Restore(sn *Snapshot) {
	if len(sn.periph) != len(s.peripherals) {
		panic(fmt.Sprintf("sim: restore of a snapshot with %d peripheral state(s) onto a simulator with %d peripheral(s)",
			len(sn.periph), len(s.peripherals)))
	}
	copy(s.state, sn.state)
	copy(s.ext, sn.ext)
	for i, p := range s.peripherals {
		p.RestoreState(sn.periph[i])
	}
	s.cycle = sn.cycle
	s.Eval()
}

// NewSnapshot builds the snapshot of a simulation instant held outside
// a Simulator (a lane of the compiled kernel): flip-flop state and
// external/input net values in FFValues/ExtValues order, taken over
// without copying, plus each peripheral's SnapshotState. It is what
// Simulator.Snapshot would have captured at that instant.
func NewSnapshot(cycle int64, ffs, ext []Value, peripherals []Peripheral) *Snapshot {
	sn := &Snapshot{state: ffs, ext: ext, cycle: cycle}
	if len(peripherals) > 0 {
		sn.periph = make([]any, len(peripherals))
		for i, p := range peripherals {
			sn.periph[i] = p.SnapshotState()
		}
	}
	return sn
}

// FFValues returns the snapshot's flip-flop state, indexed like
// Netlist.FFs. The slice aliases the snapshot and must be treated as
// read-only; it exists so the compiled word-parallel kernel can load
// snapshots straight into lane planes without a serial Restore.
func (sn *Snapshot) FFValues() []Value { return sn.state }

// ExtValues returns the snapshot's settled external/input net values,
// indexed by NetID. Read-only, like FFValues.
func (sn *Snapshot) ExtValues() []Value { return sn.ext }

// PeripheralStates returns the snapshot's opaque per-peripheral states
// in attach order (nil when the source simulator had no peripherals).
// Each entry feeds Peripheral.RestoreState on a matching instance.
func (sn *Snapshot) PeripheralStates() []any { return sn.periph }

// Peripherals returns the attached peripherals in attach order. The
// word-parallel campaign path drives per-lane peripheral instances
// directly (Sample/Commit with lane-local accessors), so it needs the
// list a fresh instance was built with.
func (s *Simulator) Peripherals() []Peripheral {
	out := make([]Peripheral, len(s.peripherals))
	copy(out, s.peripherals)
	return out
}
