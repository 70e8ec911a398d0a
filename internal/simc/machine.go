package simc

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// ForceRef identifies one registered force point on a Machine.
type ForceRef int32

// BridgeRef identifies one registered bridge on a Machine.
type BridgeRef int32

type bridgeEntry struct {
	a, b  int32 // bridge-net indices
	wand  bool  // wired-AND (false = wired-OR)
	armed uint64
}

// Machine evaluates a compiled program in full three-valued logic over
// two planes per slot: a value plane and an X-mask plane, with the
// invariant val&x == 0 (an unknown lane's value bit is zero). Each of
// the 64 lanes is an independent simulation.
//
// Usage: register every force/bridge point the batch may need (AddNet-
// Force, AddPinForce, AddBridge), load lanes from snapshots, then run.
// The op stream is sealed on the first Eval; registering points after
// that panics. Arming and disarming forces (per-lane masks) is cheap
// and allowed at any time.
type Machine struct {
	p      *Program
	ops    []op
	sealed bool

	valP, xP       []uint64 // per slot
	extV, extX     []uint64 // per net: input/external values, as committed
	stateV, stateX []uint64 // per FF
	nextV, nextX   []uint64 // per FF scratch for Step

	// Registered patch points.
	netPatches []netPatch
	pinPatches []pinPatch
	netRefOf   map[int32]ForceRef
	pinRefOf   map[uint64]ForceRef
	bnetOf     map[int32]int32 // net slot -> bridge-net index
	bridgeNets []int32
	bridges    []bridgeEntry

	// Force slots (indexed by ForceRef): lanes where the force applies,
	// the forced value bits and the forced X bits (val&x == 0, both
	// subsets of any).
	fAny, fVal, fX []uint64

	// Bridge-net planes: captured driven values and the resolution
	// overlay (ovV/ovX are subsets of ovAny).
	driveV, driveX, ovAny, ovV, ovX []uint64
}

// NewMachine builds a machine for the program with all lanes at
// all-zero state and no forces registered.
func NewMachine(p *Program) *Machine {
	n := p.n
	return &Machine{
		p:        p,
		extV:     make([]uint64, len(n.Nets)),
		extX:     make([]uint64, len(n.Nets)),
		stateV:   make([]uint64, len(n.FFs)),
		stateX:   make([]uint64, len(n.FFs)),
		nextV:    make([]uint64, len(n.FFs)),
		nextX:    make([]uint64, len(n.FFs)),
		netRefOf: make(map[int32]ForceRef),
		pinRefOf: make(map[uint64]ForceRef),
		bnetOf:   make(map[int32]int32),
	}
}

func (m *Machine) mustOpen(what string) {
	if m.sealed {
		panic("simc: " + what + " after the machine was sealed by its first Eval")
	}
}

func (m *Machine) newForceSlot() ForceRef {
	ref := ForceRef(len(m.fAny))
	m.fAny = append(m.fAny, 0)
	m.fVal = append(m.fVal, 0)
	m.fX = append(m.fX, 0)
	return ref
}

// AddNetForce registers a force point on a net (the value every reader
// of the net observes, like sim.ForceNet). Duplicate registrations
// share one slot.
func (m *Machine) AddNetForce(id netlist.NetID) ForceRef {
	m.mustOpen("AddNetForce")
	if ref, ok := m.netRefOf[int32(id)]; ok {
		return ref
	}
	ref := m.newForceSlot()
	m.netRefOf[int32(id)] = ref
	m.netPatches = append(m.netPatches, netPatch{net: int32(id), ref: int32(ref)})
	return ref
}

// AddPinForce registers a force point on one gate input pin (affects
// only that gate, like sim.ForcePin).
func (m *Machine) AddPinForce(g netlist.GateID, pin int) (ForceRef, error) {
	m.mustOpen("AddPinForce")
	key := pinKeyOf(g, pin)
	if ref, ok := m.pinRefOf[key]; ok {
		return ref, nil
	}
	site, ok := m.p.pinSites[key]
	if !ok {
		return 0, fmt.Errorf("simc: no pin %d on gate %d", pin, g)
	}
	ref := m.newForceSlot()
	m.pinRefOf[key] = ref
	m.pinPatches = append(m.pinPatches, pinPatch{site: site, ref: int32(ref)})
	return ref, nil
}

// AddBridge registers a bridging fault between two nets (wired-AND or
// wired-OR), initially disarmed in every lane.
func (m *Machine) AddBridge(a, b netlist.NetID, wiredAND bool) BridgeRef {
	m.mustOpen("AddBridge")
	ref := BridgeRef(len(m.bridges))
	m.bridges = append(m.bridges, bridgeEntry{a: m.bridgeNet(a), b: m.bridgeNet(b), wand: wiredAND})
	return ref
}

func (m *Machine) bridgeNet(id netlist.NetID) int32 {
	if bi, ok := m.bnetOf[int32(id)]; ok {
		return bi
	}
	bi := int32(len(m.bridgeNets))
	m.bnetOf[int32(id)] = bi
	m.bridgeNets = append(m.bridgeNets, int32(id))
	m.driveV = append(m.driveV, 0)
	m.driveX = append(m.driveX, 0)
	m.ovAny = append(m.ovAny, 0)
	m.ovV = append(m.ovV, 0)
	m.ovX = append(m.ovX, 0)
	return bi
}

// SetForce arms a force point with value v in the given lanes
// (overwriting any previous value there).
func (m *Machine) SetForce(ref ForceRef, lanes uint64, v sim.Value) {
	m.fAny[ref] |= lanes
	m.fVal[ref] &^= lanes
	m.fX[ref] &^= lanes
	switch v {
	case sim.V1:
		m.fVal[ref] |= lanes
	case sim.VX:
		m.fX[ref] |= lanes
	}
}

// ClearForce disarms a force point in the given lanes.
func (m *Machine) ClearForce(ref ForceRef, lanes uint64) {
	m.fAny[ref] &^= lanes
	m.fVal[ref] &^= lanes
	m.fX[ref] &^= lanes
}

// ArmBridge activates a bridge in the given lanes.
func (m *Machine) ArmBridge(ref BridgeRef, lanes uint64) {
	m.bridges[ref].armed |= lanes
}

// DisarmBridge deactivates a bridge in the given lanes.
func (m *Machine) DisarmBridge(ref BridgeRef, lanes uint64) {
	m.bridges[ref].armed &^= lanes
}

// FlipFF inverts a flip-flop's state in the given lanes; X lanes stay
// X (the Kleene complement), matching sim.FlipFF.
func (m *Machine) FlipFF(id netlist.FFID, lanes uint64) {
	m.stateV[id] ^= lanes &^ m.stateX[id]
}

// LoadLane loads one lane's sequential state from snapshot slices
// (sim.Snapshot.FFValues / ExtValues order). It does not evaluate;
// call Eval after the last lane is loaded.
func (m *Machine) LoadLane(lane int, ffs, ext []sim.Value) {
	if len(ffs) != len(m.stateV) || len(ext) != len(m.extV) {
		panic(fmt.Sprintf("simc: LoadLane shape mismatch: %d/%d FFs, %d/%d nets",
			len(ffs), len(m.stateV), len(ext), len(m.extV)))
	}
	bit := uint64(1) << uint(lane)
	for i, v := range ffs {
		setLaneBit(m.stateV, m.stateX, i, bit, v)
	}
	for i, v := range ext {
		setLaneBit(m.extV, m.extX, i, bit, v)
	}
}

// StoreLane reads one lane's sequential state back out — the inverse
// of LoadLane: fresh FF and external/input net slices in the order
// sim.NewSnapshot takes them.
func (m *Machine) StoreLane(lane int) (ffs, ext []sim.Value) {
	bit := uint64(1) << uint(lane)
	ffs = make([]sim.Value, len(m.stateV))
	for i := range ffs {
		ffs[i] = laneBit(m.stateV, m.stateX, i, bit)
	}
	ext = make([]sim.Value, len(m.extV))
	for i := range ext {
		ext[i] = laneBit(m.extV, m.extX, i, bit)
	}
	return ffs, ext
}

func laneBit(valP, xP []uint64, i int, bit uint64) sim.Value {
	switch {
	case xP[i]&bit != 0:
		return sim.VX
	case valP[i]&bit != 0:
		return sim.V1
	}
	return sim.V0
}

func setLaneBit(valP, xP []uint64, i int, bit uint64, v sim.Value) {
	valP[i] &^= bit
	xP[i] &^= bit
	switch v {
	case sim.V1:
		valP[i] |= bit
	case sim.VX:
		xP[i] |= bit
	}
}

// DriveInput drives one input/external net with the same value in all
// lanes (the broadcast trace-application path).
func (m *Machine) DriveInput(id netlist.NetID, v sim.Value) {
	m.extV[id], m.extX[id] = 0, 0
	switch v {
	case sim.V1:
		m.extV[id] = ^uint64(0)
	case sim.VX:
		m.extX[id] = ^uint64(0)
	}
}

// SetExt sets one external/input net in one lane (the per-lane
// peripheral commit path).
func (m *Machine) SetExt(lane int, id netlist.NetID, v sim.Value) {
	setLaneBit(m.extV, m.extX, int(id), uint64(1)<<uint(lane), v)
}

// NetValue reads one net in one lane as a three-valued level.
func (m *Machine) NetValue(lane int, id netlist.NetID) sim.Value {
	return laneBit(m.valP, m.xP, int(id), uint64(1)<<uint(lane))
}

// NetPlanes returns a net's value and X planes (all 64 lanes at once;
// the word-parallel monitor path).
func (m *Machine) NetPlanes(id netlist.NetID) (val, x uint64) {
	return m.valP[id], m.xP[id]
}

// FFValue reads one flip-flop's state in one lane.
func (m *Machine) FFValue(lane int, id netlist.FFID) sim.Value {
	return laneBit(m.stateV, m.stateX, int(id), uint64(1)<<uint(lane))
}

// seal builds the patched op stream and allocates the value planes.
func (m *Machine) seal() {
	ops, slots := patchOps(m.p, m.netPatches, m.pinPatches, m.bridgeNets)
	m.ops = ops
	m.valP = make([]uint64, slots)
	m.xP = make([]uint64, slots)
	m.sealed = true
}

// maxBridgeIter mirrors the serial interpreter's fixpoint bound.
const maxBridgeIter = 8

// Eval settles the combinational network in every lane from current
// state, inputs and forces, honoring armed bridges: the same drive-
// value fixpoint as sim.Eval, iterated per lane, with lanes that still
// oscillate after maxBridgeIter declared X on their bridged nets.
// Lanes with no armed bridge settle in the first pass and are
// untouched by the extra iterations (the pass is idempotent).
func (m *Machine) Eval() {
	if !m.sealed {
		m.seal()
	}
	for i := range m.ovAny {
		m.ovAny[i], m.ovV[i], m.ovX[i] = 0, 0, 0
	}
	m.evalPass()
	armedAny := uint64(0)
	for i := range m.bridges {
		armedAny |= m.bridges[i].armed
	}
	if armedAny == 0 {
		return
	}
	unstable := uint64(0)
	for iter := 0; iter < maxBridgeIter; iter++ {
		changed := uint64(0)
		for i := range m.bridges {
			e := &m.bridges[i]
			if e.armed == 0 {
				continue
			}
			var rv, rx uint64
			av, ax := m.driveV[e.a], m.driveX[e.a]
			bv, bx := m.driveV[e.b], m.driveX[e.b]
			if e.wand {
				rv = av & bv
				rx = (ax | bx) & (av | ax) & (bv | bx)
			} else {
				rv = av | bv
				rx = (ax | bx) &^ rv
			}
			changed |= m.ovSet(e.a, e.armed, rv, rx)
			changed |= m.ovSet(e.b, e.armed, rv, rx)
		}
		if changed == 0 {
			return
		}
		unstable = changed
		m.evalPass()
	}
	// Lanes still changing on the last iteration oscillate through the
	// bridge; their bridged nets become X, like the serial interpreter.
	for i := range m.bridges {
		e := &m.bridges[i]
		am := e.armed & unstable
		if am == 0 {
			continue
		}
		m.ovForceX(e.a, am)
		m.ovForceX(e.b, am)
	}
	m.evalPass()
}

// ovSet merges a bridge resolution into a bridge-net's overlay for the
// armed lanes, returning the lanes whose overlay changed (or was newly
// established — the serial loop counts first-time assignment as a
// change too).
func (m *Machine) ovSet(bn int32, am, rv, rx uint64) uint64 {
	newly := am &^ m.ovAny[bn]
	diff := am & m.ovAny[bn] & ((m.ovV[bn] ^ rv) | (m.ovX[bn] ^ rx))
	m.ovAny[bn] |= am
	m.ovV[bn] = m.ovV[bn]&^am | rv&am
	m.ovX[bn] = m.ovX[bn]&^am | rx&am
	return newly | diff
}

func (m *Machine) ovForceX(bn int32, lanes uint64) {
	m.ovAny[bn] |= lanes
	m.ovV[bn] &^= lanes
	m.ovX[bn] |= lanes
}

// evalPass runs the source load phase and one pass over the op stream.
func (m *Machine) evalPass() {
	p := m.p
	n := p.n
	valP, xP := m.valP, m.xP
	if n.Const0 != netlist.InvalidNet {
		valP[n.Const0], xP[n.Const0] = 0, 0
	}
	if n.Const1 != netlist.InvalidNet {
		valP[n.Const1], xP[n.Const1] = ^uint64(0), 0
	}
	for _, id := range p.portNets {
		valP[id], xP[id] = m.extV[id], m.extX[id]
	}
	for i, q := range p.ffQ {
		valP[q], xP[q] = m.stateV[i], m.stateX[i]
	}
	ops := m.ops
	for i := range ops {
		o := &ops[i]
		switch o.code {
		case opBUF:
			valP[o.out], xP[o.out] = valP[o.a], xP[o.a]
		case opNOT:
			av, ax := valP[o.a], xP[o.a]
			valP[o.out], xP[o.out] = ^av&^ax, ax
		case opAND2:
			av, ax := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			valP[o.out] = av & bv
			xP[o.out] = (ax | bx) & (av | ax) & (bv | bx)
		case opNAND2:
			av, ax := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			v := av & bv
			x := (ax | bx) & (av | ax) & (bv | bx)
			valP[o.out], xP[o.out] = ^v&^x, x
		case opOR2:
			av, ax := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			v := av | bv
			valP[o.out] = v
			xP[o.out] = (ax | bx) &^ v
		case opNOR2:
			av, ax := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			v := av | bv
			x := (ax | bx) &^ v
			valP[o.out], xP[o.out] = ^v&^x, x
		case opXOR2:
			av, ax := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			x := ax | bx
			valP[o.out], xP[o.out] = (av^bv)&^x, x
		case opXNOR2:
			av, ax := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			x := ax | bx
			valP[o.out], xP[o.out] = ^(av^bv)&^x, x
		case opMUX2:
			sv, sx := valP[o.a], xP[o.a]
			bv, bx := valP[o.b], xP[o.b]
			cv, cx := valP[o.c], xP[o.c]
			agree := ^(bx | cx) &^ (bv ^ cv)
			valP[o.out] = ^sx&(sv&cv|^sv&bv) | sx&agree&bv
			xP[o.out] = ^sx&(sv&cx|^sv&bx) | sx&^agree
		case opFORCE:
			any := m.fAny[o.b]
			valP[o.out] = valP[o.a]&^any | m.fVal[o.b]
			xP[o.out] = xP[o.a]&^any | m.fX[o.b]
		case opBRIDGE:
			m.driveV[o.b], m.driveX[o.b] = valP[o.a], xP[o.a]
			any := m.ovAny[o.b]
			valP[o.a] = valP[o.a]&^any | m.ovV[o.b]
			xP[o.a] = xP[o.a]&^any | m.ovX[o.b]
		}
	}
}

// Step applies one positive clock edge in every lane: flip-flops
// sample the settled pre-edge values (with the same unknown-enable
// semantics as sim.Step), the optional tick callback runs for
// peripheral sampling/commit while pre-edge values are still live,
// state commits and the network re-settles.
func (m *Machine) Step(tick func()) {
	if !m.sealed {
		m.seal()
	}
	p := m.p
	for i := range p.ffQ {
		dv, dx := m.valP[p.ffD[i]], m.xP[p.ffD[i]]
		sv, sx := m.stateV[i], m.stateX[i]
		if en := p.ffEn[i]; en >= 0 {
			ev, ex := m.valP[en], m.xP[en]
			load1 := ev &^ ex
			load0 := ^ev &^ ex
			agree := ^(dx | sx) &^ (dv ^ sv)
			m.nextV[i] = load1&dv | load0&sv | ex&agree&sv
			m.nextX[i] = load1&dx | load0&sx | ex&^agree
		} else {
			m.nextV[i], m.nextX[i] = dv, dx
		}
	}
	if tick != nil {
		tick()
	}
	copy(m.stateV, m.nextV)
	copy(m.stateX, m.nextX)
	m.Eval()
}
