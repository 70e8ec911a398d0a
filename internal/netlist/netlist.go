// Package netlist defines the structural gate-level intermediate
// representation every other package operates on: nets, combinational
// gates, D flip-flops and ports, with hierarchical block paths.
//
// The representation corresponds to the "synthesized RTL" the paper's
// zone-extraction tool consumes: a flat gate graph in which registers
// keep their RTL names so they can be compacted back into sensible zones.
package netlist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// NetID identifies a net (a single-bit wire) within one Netlist.
type NetID int32

// GateID identifies a combinational gate within one Netlist.
type GateID int32

// FFID identifies a D flip-flop within one Netlist.
type FFID int32

// InvalidNet is the zero-value sentinel for "no net".
const InvalidNet NetID = -1

// GateType enumerates the primitive combinational cells.
type GateType uint8

// Primitive gate types. MUX2 selects inputs[1] when inputs[0] is 0 and
// inputs[2] when inputs[0] is 1.
const (
	BUF GateType = iota
	NOT
	AND
	OR
	NAND
	NOR
	XOR
	XNOR
	MUX2
)

var gateNames = [...]string{"BUF", "NOT", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX2"}

func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Arity returns the number of inputs the gate type requires, or -1 when
// the type accepts any arity >= 2 (AND/OR/NAND/NOR/XOR/XNOR).
func (t GateType) Arity() int {
	switch t {
	case BUF, NOT:
		return 1
	case MUX2:
		return 3
	default:
		return -1
	}
}

// Net is a single-bit wire. Name is optional; driver bookkeeping is
// maintained by the Netlist.
type Net struct {
	ID   NetID
	Name string
}

// Gate is a primitive combinational cell with one output net.
type Gate struct {
	ID     GateID
	Type   GateType
	Inputs []NetID
	Output NetID
	// Block is the hierarchical block path ("F_MEM/DECODER") the gate
	// belongs to; used for sub-block sensible zones.
	Block string
}

// FF is a positive-edge D flip-flop with optional clock enable and a
// synchronous reset value. All flip-flops share the implicit clock.
type FF struct {
	ID FFID
	// Name is the RTL register name including bit index, e.g. "wbuf_data[3]".
	Name   string
	D      NetID
	Q      NetID
	Enable NetID // InvalidNet when always enabled
	// ResetVal is the value loaded by the implicit global reset.
	ResetVal bool
	Block    string
}

// Port is a named primary input or output bus of the netlist.
type Port struct {
	Name string
	Nets []NetID
}

// Netlist is a flat synchronous gate-level design: one implicit clock,
// one implicit global reset, combinational gates and D flip-flops.
type Netlist struct {
	Name  string
	Nets  []Net
	Gates []Gate
	FFs   []FF

	Inputs  []Port
	Outputs []Port

	// Externals are nets driven by behavioral peripherals (e.g. a memory
	// array model) rather than by gates or primary inputs. The simulator
	// lets attached peripherals update them at each clock edge.
	Externals []Port

	// Const0 and Const1 are nets tied to constant logic levels, or
	// InvalidNet when the design never used a constant.
	Const0 NetID
	Const1 NetID

	driver map[NetID]driverRef
	keep   []NetID

	// epoch counts structural mutations; topo and valid memoize
	// Levelize/Validate results for one epoch. Campaigns construct one
	// simulator per experiment over a finished netlist, so both would
	// otherwise re-walk the whole design per instance. The caches are
	// atomic pointers: concurrent readers may race to compute the same
	// deterministic result, and builds (the only mutators) are
	// single-goroutine, so a plain epoch counter suffices.
	epoch uint64
	topo  atomic.Pointer[topoCache]
	valid atomic.Pointer[validCache]
}

type topoCache struct {
	epoch uint64
	order []GateID
	err   error
}

type validCache struct {
	epoch uint64
	err   error
}

// mutated invalidates the memoized Levelize/Validate results. Every
// structural mutator calls it (directly or through AddNet/setDriver).
func (n *Netlist) mutated() {
	n.epoch++
}

type driverRef struct {
	kind  driverKind
	index int32
}

type driverKind uint8

const (
	driverNone driverKind = iota
	driverGate
	driverFF
	driverInput
	driverConst
	driverExternal
)

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{
		Name:   name,
		Const0: InvalidNet,
		Const1: InvalidNet,
		driver: make(map[NetID]driverRef),
	}
}

// AddNet creates a new net and returns its ID.
func (n *Netlist) AddNet(name string) NetID {
	n.mutated()
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{ID: id, Name: name})
	return id
}

// NetName returns the net's name, or a synthesized "n<id>" placeholder.
func (n *Netlist) NetName(id NetID) string {
	if id >= 0 && int(id) < len(n.Nets) && n.Nets[id].Name != "" {
		return n.Nets[id].Name
	}
	return fmt.Sprintf("n%d", id)
}

// ConstNet returns the net tied to the given constant value, creating it
// on first use.
func (n *Netlist) ConstNet(v bool) NetID {
	if v {
		if n.Const1 == InvalidNet {
			n.Const1 = n.AddNet("const1")
			n.driver[n.Const1] = driverRef{kind: driverConst}
			n.mutated()
		}
		return n.Const1
	}
	if n.Const0 == InvalidNet {
		n.Const0 = n.AddNet("const0")
		n.driver[n.Const0] = driverRef{kind: driverConst}
		n.mutated()
	}
	return n.Const0
}

// IsConst reports whether the net is one of the constant nets, and the
// constant value if so.
func (n *Netlist) IsConst(id NetID) (val, ok bool) {
	switch id {
	case n.Const0:
		return false, id != InvalidNet
	case n.Const1:
		return true, id != InvalidNet
	}
	return false, false
}

// AddGate creates a gate driving a fresh unnamed net and returns the
// output net. Inputs must already exist.
func (n *Netlist) AddGate(t GateType, block string, inputs ...NetID) NetID {
	out := n.AddNet("")
	n.AddGateTo(t, block, out, inputs...)
	return out
}

// AddGateTo creates a gate driving the given existing output net.
func (n *Netlist) AddGateTo(t GateType, block string, output NetID, inputs ...NetID) GateID {
	if a := t.Arity(); a >= 0 && len(inputs) != a {
		panic(fmt.Sprintf("netlist: %s gate requires %d inputs, got %d", t, a, len(inputs)))
	}
	if t.Arity() < 0 && len(inputs) < 2 {
		panic(fmt.Sprintf("netlist: %s gate requires >=2 inputs, got %d", t, len(inputs)))
	}
	id := GateID(len(n.Gates))
	in := make([]NetID, len(inputs))
	copy(in, inputs)
	n.Gates = append(n.Gates, Gate{ID: id, Type: t, Inputs: in, Output: output, Block: block})
	n.setDriver(output, driverRef{kind: driverGate, index: int32(id)})
	return id
}

// AddFF creates a D flip-flop. enable may be InvalidNet for an
// always-enabled register.
func (n *Netlist) AddFF(name, block string, d, enable NetID, resetVal bool) (FFID, NetID) {
	q := n.AddNet(name)
	id := FFID(len(n.FFs))
	n.FFs = append(n.FFs, FF{ID: id, Name: name, D: d, Q: q, Enable: enable, ResetVal: resetVal, Block: block})
	n.setDriver(q, driverRef{kind: driverFF, index: int32(id)})
	return id, q
}

// AddFFTo creates a D flip-flop driving an existing net (the parser's
// counterpart of AddGateTo).
func (n *Netlist) AddFFTo(name, block string, d, enable, q NetID, resetVal bool) FFID {
	id := FFID(len(n.FFs))
	n.FFs = append(n.FFs, FF{ID: id, Name: name, D: d, Q: q, Enable: enable, ResetVal: resetVal, Block: block})
	n.setDriver(q, driverRef{kind: driverFF, index: int32(id)})
	return id
}

// SetFFD rebinds the D input of an existing flip-flop. Used by the RTL
// builder to close register feedback loops.
func (n *Netlist) SetFFD(id FFID, d NetID) {
	n.mutated()
	n.FFs[id].D = d
}

// SetFFEnable rebinds the clock-enable of an existing flip-flop.
func (n *Netlist) SetFFEnable(id FFID, en NetID) {
	n.mutated()
	n.FFs[id].Enable = en
}

// AddInput registers a primary input port of the given width, creating
// one net per bit (bit 0 first).
func (n *Netlist) AddInput(name string, width int) []NetID {
	nets := make([]NetID, width)
	for i := range nets {
		nm := name
		if width > 1 {
			nm = fmt.Sprintf("%s[%d]", name, i)
		}
		nets[i] = n.AddNet(nm)
		n.setDriver(nets[i], driverRef{kind: driverInput})
	}
	n.Inputs = append(n.Inputs, Port{Name: name, Nets: nets})
	return nets
}

// AddExternal registers a peripheral-driven port of the given width,
// creating one net per bit. The nets validate as driven but are updated
// by an attached behavioral component, not by gates.
func (n *Netlist) AddExternal(name string, width int) []NetID {
	nets := make([]NetID, width)
	for i := range nets {
		nm := name
		if width > 1 {
			nm = fmt.Sprintf("%s[%d]", name, i)
		}
		nets[i] = n.AddNet(nm)
		n.setDriver(nets[i], driverRef{kind: driverExternal})
	}
	n.Externals = append(n.Externals, Port{Name: name, Nets: nets})
	return nets
}

// IsDriven reports whether anything drives the net (gate, FF, primary
// input, constant or peripheral). Nets orphaned by dead-logic pruning
// are undriven and unread.
func (n *Netlist) IsDriven(id NetID) bool {
	ref, ok := n.driver[id]
	return ok && ref.kind != driverNone
}

// AddOutput registers a primary output port over existing nets.
func (n *Netlist) AddOutput(name string, nets []NetID) {
	n.mutated()
	cp := make([]NetID, len(nets))
	copy(cp, nets)
	n.Outputs = append(n.Outputs, Port{Name: name, Nets: cp})
}

func (n *Netlist) setDriver(id NetID, ref driverRef) {
	if prev, ok := n.driver[id]; ok && prev.kind != driverNone {
		panic(fmt.Sprintf("netlist: net %s (%d) already driven", n.NetName(id), id))
	}
	n.mutated()
	n.driver[id] = ref
}

// DriverGate returns the gate driving the net, if any.
func (n *Netlist) DriverGate(id NetID) (*Gate, bool) {
	if ref, ok := n.driver[id]; ok && ref.kind == driverGate {
		return &n.Gates[ref.index], true
	}
	return nil, false
}

// DriverFF returns the flip-flop driving the net, if any.
func (n *Netlist) DriverFF(id NetID) (*FF, bool) {
	if ref, ok := n.driver[id]; ok && ref.kind == driverFF {
		return &n.FFs[ref.index], true
	}
	return nil, false
}

// Stats summarizes netlist composition.
type Stats struct {
	Nets      int
	Gates     int
	FFs       int
	Inputs    int // input bits
	Outputs   int // output bits
	MaxFanout int
	Levels    int // combinational depth (0 when empty)
}

// ComputeStats returns composition statistics for the netlist.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{Nets: len(n.Nets), Gates: len(n.Gates), FFs: len(n.FFs)}
	for _, p := range n.Inputs {
		s.Inputs += len(p.Nets)
	}
	for _, p := range n.Outputs {
		s.Outputs += len(p.Nets)
	}
	fanout := n.FanoutCounts()
	for _, f := range fanout {
		if f > s.MaxFanout {
			s.MaxFanout = f
		}
	}
	if order, err := n.Levelize(); err == nil && len(order) > 0 {
		level := make([]int, len(n.Nets))
		for _, gid := range order {
			g := &n.Gates[gid]
			max := 0
			for _, in := range g.Inputs {
				if level[in] > max {
					max = level[in]
				}
			}
			level[g.Output] = max + 1
			if level[g.Output] > s.Levels {
				s.Levels = level[g.Output]
			}
		}
	}
	return s
}

// FanoutCounts returns, per net, the number of gate inputs, FF data/enable
// pins and primary outputs the net feeds.
func (n *Netlist) FanoutCounts() []int {
	fan := make([]int, len(n.Nets))
	for i := range n.Gates {
		for _, in := range n.Gates[i].Inputs {
			fan[in]++
		}
	}
	for i := range n.FFs {
		fan[n.FFs[i].D]++
		if n.FFs[i].Enable != InvalidNet {
			fan[n.FFs[i].Enable]++
		}
	}
	for _, p := range n.Outputs {
		for _, id := range p.Nets {
			fan[id]++
		}
	}
	return fan
}

// GateReaders returns, per net, the IDs of gates that read the net as
// an input (the forward adjacency of the combinational graph). A gate
// reading the same net on several pins appears once per pin.
func (n *Netlist) GateReaders() [][]GateID {
	readers := make([][]GateID, len(n.Nets))
	for i := range n.Gates {
		for _, in := range n.Gates[i].Inputs {
			readers[in] = append(readers[in], n.Gates[i].ID)
		}
	}
	return readers
}

// FFReaders returns, per net, the IDs of flip-flops that sample the net
// on their D or Enable pin (the forward adjacency across clock edges).
func (n *Netlist) FFReaders() [][]FFID {
	readers := make([][]FFID, len(n.Nets))
	for i := range n.FFs {
		readers[n.FFs[i].D] = append(readers[n.FFs[i].D], n.FFs[i].ID)
		if en := n.FFs[i].Enable; en != InvalidNet {
			readers[en] = append(readers[en], n.FFs[i].ID)
		}
	}
	return readers
}

// Levelize returns gate IDs in topological (evaluation) order. It fails
// if the combinational logic contains a cycle. The order is memoized
// until the next structural mutation; callers must treat the returned
// slice as read-only.
func (n *Netlist) Levelize() ([]GateID, error) {
	if c := n.topo.Load(); c != nil && c.epoch == n.epoch {
		return c.order, c.err
	}
	order, err := n.levelize()
	n.topo.Store(&topoCache{epoch: n.epoch, order: order, err: err})
	return order, err
}

func (n *Netlist) levelize() ([]GateID, error) {
	// Kahn's algorithm over gates; FF outputs, primary inputs and
	// constants are sources.
	indeg := make([]int32, len(n.Gates))
	// users[net] = gates reading the net.
	users := make(map[NetID][]GateID, len(n.Nets))
	for i := range n.Gates {
		g := &n.Gates[i]
		for _, in := range g.Inputs {
			if _, drivenByGate := n.DriverGate(in); drivenByGate {
				indeg[i]++
			}
			users[in] = append(users[in], g.ID)
		}
	}
	queue := make([]GateID, 0, len(n.Gates))
	for i := range n.Gates {
		if indeg[i] == 0 {
			queue = append(queue, GateID(i))
		}
	}
	order := make([]GateID, 0, len(n.Gates))
	for len(queue) > 0 {
		gid := queue[0]
		queue = queue[1:]
		order = append(order, gid)
		out := n.Gates[gid].Output
		for _, u := range users[out] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(order) != len(n.Gates) {
		return nil, fmt.Errorf("netlist %q: combinational cycle involving %d gate(s)", n.Name, len(n.Gates)-len(order))
	}
	return order, nil
}

// Validate checks structural well-formedness: every gate/FF input net
// exists and is driven, no net is driven twice (enforced at build time),
// no combinational cycles, and every primary output is driven. All
// structural violations are accumulated (errors.Join), so a single pass
// reports the full list rather than the first hit. The verdict is
// memoized until the next structural mutation, so per-experiment
// simulator construction validates the shared design only once.
func (n *Netlist) Validate() error {
	if c := n.valid.Load(); c != nil && c.epoch == n.epoch {
		return c.err
	}
	err := n.validate()
	n.valid.Store(&validCache{epoch: n.epoch, err: err})
	return err
}

func (n *Netlist) validate() error {
	var errs []error
	// what() renders the offending pin lazily: the success path walks
	// every pin of the design and must not pay for error formatting.
	check := func(id NetID, what func() string) {
		if id < 0 || int(id) >= len(n.Nets) {
			errs = append(errs, fmt.Errorf("netlist %q: %s references nonexistent net %d", n.Name, what(), id))
			return
		}
		ref, ok := n.driver[id]
		if !ok || ref.kind == driverNone {
			errs = append(errs, fmt.Errorf("netlist %q: %s reads undriven net %s", n.Name, what(), n.NetName(id)))
		}
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		what := func() string { return fmt.Sprintf("gate %d (%s)", g.ID, g.Type) }
		for _, in := range g.Inputs {
			check(in, what)
		}
	}
	for i := range n.FFs {
		ff := &n.FFs[i]
		check(ff.D, func() string { return fmt.Sprintf("FF %q D pin", ff.Name) })
		if ff.Enable != InvalidNet {
			check(ff.Enable, func() string { return fmt.Sprintf("FF %q enable pin", ff.Name) })
		}
	}
	for _, p := range n.Outputs {
		what := func() string { return fmt.Sprintf("output port %q", p.Name) }
		for _, id := range p.Nets {
			check(id, what)
		}
	}
	if _, err := n.Levelize(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// MarkKeep protects nets from dead-logic pruning even when no gate, FF
// or port reads them — used for nets sampled by behavioral peripherals.
func (n *Netlist) MarkKeep(nets ...NetID) {
	n.mutated()
	n.keep = append(n.keep, nets...)
}

// Kept returns the nets protected by MarkKeep (peripheral-sampled nets).
// Static analyses treat them as read.
func (n *Netlist) Kept() []NetID {
	return append([]NetID(nil), n.keep...)
}

// Prune removes gates whose outputs are transitively unread (dead
// logic), the way synthesis sweeps unused carry-outs and the like.
// Roots are primary outputs, FF D/enable pins, and kept nets. It returns
// the number of gates removed. Net IDs are preserved; removed gates'
// output nets become undriven (and unread).
func (n *Netlist) Prune() int {
	n.mutated()
	liveNets := make([]bool, len(n.Nets))
	mark := func(id NetID) {
		if id >= 0 && int(id) < len(liveNets) {
			liveNets[id] = true
		}
	}
	for _, p := range n.Outputs {
		for _, id := range p.Nets {
			mark(id)
		}
	}
	for i := range n.FFs {
		mark(n.FFs[i].D)
		mark(n.FFs[i].Enable)
	}
	for _, id := range n.keep {
		mark(id)
	}
	// Backward closure over gates.
	liveGates := make([]bool, len(n.Gates))
	changed := true
	for changed {
		changed = false
		for i := range n.Gates {
			g := &n.Gates[i]
			if liveGates[i] || !liveNets[g.Output] {
				continue
			}
			liveGates[i] = true
			changed = true
			for _, in := range g.Inputs {
				if !liveNets[in] {
					liveNets[in] = true
				}
			}
		}
	}
	removed := 0
	kept := n.Gates[:0]
	for i := range n.Gates {
		if !liveGates[i] {
			delete(n.driver, n.Gates[i].Output)
			removed++
			continue
		}
		kept = append(kept, n.Gates[i])
	}
	n.Gates = kept
	// Reassign gate IDs and rebuild gate driver references.
	for i := range n.Gates {
		n.Gates[i].ID = GateID(i)
		n.driver[n.Gates[i].Output] = driverRef{kind: driverGate, index: int32(i)}
	}
	return removed
}

// Blocks returns the sorted set of distinct non-empty block paths used by
// gates and flip-flops.
func (n *Netlist) Blocks() []string {
	set := make(map[string]bool)
	for i := range n.Gates {
		if b := n.Gates[i].Block; b != "" {
			set[b] = true
		}
	}
	for i := range n.FFs {
		if b := n.FFs[i].Block; b != "" {
			set[b] = true
		}
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// BlockGateCount returns the number of gates per block path (exact match).
func (n *Netlist) BlockGateCount() map[string]int {
	m := make(map[string]int)
	for i := range n.Gates {
		m[n.Gates[i].Block]++
	}
	return m
}

// String returns a one-line summary.
func (n *Netlist) String() string {
	s := n.ComputeStats()
	return fmt.Sprintf("%s: %d gates, %d FFs, %d nets, %d/%d in/out bits, depth %d",
		n.Name, s.Gates, s.FFs, s.Nets, s.Inputs, s.Outputs, s.Levels)
}

// FindInput returns the input port with the given name.
func (n *Netlist) FindInput(name string) (Port, bool) {
	for _, p := range n.Inputs {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// FindOutput returns the output port with the given name.
func (n *Netlist) FindOutput(name string) (Port, bool) {
	for _, p := range n.Outputs {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// RegisterGroups compacts flip-flops back into RTL register buses: FFs
// named "base[i]" (or exactly "base") are grouped under "base", in bit
// order. This is the register compaction step of the extraction tool.
func (n *Netlist) RegisterGroups() map[string][]FFID {
	groups := make(map[string][]FFID)
	for i := range n.FFs {
		base := RegisterBase(n.FFs[i].Name)
		groups[base] = append(groups[base], FFID(i))
	}
	return groups
}

// RegisterBase strips a trailing "[i]" bit index from a register name.
func RegisterBase(name string) string {
	if j := strings.LastIndexByte(name, '['); j > 0 && strings.HasSuffix(name, "]") {
		return name[:j]
	}
	return name
}
