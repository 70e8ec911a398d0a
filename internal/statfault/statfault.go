// Package statfault is a static fault-analysis engine over the
// levelized netlist. It derives three families of proofs without
// running a single simulation cycle:
//
//   - Cone-of-influence reachability: for every net, which monitor
//     groups (the OBSE/DIAG observation points, and each sensible
//     zone's SENS effect-net set) lie in its forward cone. A fault
//     whose cone contains no monitor is statically unobservable — its
//     campaign verdict is Silent by construction.
//   - Constant propagation over tied nets: nets proven to hold a fixed
//     binary value in every fault-free run (Kleene-sound: a controlling
//     constant pins a gate's output even when sibling inputs are
//     unknown; a flip-flop is constant when its D cone is constant at
//     the reset value). A stuck-at fault forcing a net to its proven
//     constant is untestable — the faulty machine is the golden
//     machine.
//   - Structural fault collapsing: equivalence classes over (net,
//     polarity) stuck-at atoms under the campaign-exact rules (input
//     stuck-ats on buffers/inverters/wires collapse onto their driver
//     when the stem is invisible to every monitor), plus classic
//     dominance edges for the audit report.
//
// The equivalence relation here is deliberately stricter than the
// classic detectability-preserving collapse in faults.Universe: two
// atoms are merged only when forcing either one yields the *same value
// trajectory on every monitored net in every cycle*, so a campaign may
// simulate one representative and copy its full result row — outcome,
// SENS flag, deviation list and first-deviation cycle — onto every
// class member without changing a byte of the report.
package statfault

import (
	"errors"

	"repro/internal/netlist"
	"repro/internal/zones"
)

// constant-propagation lattice: unknown (not proven) or proven 0/1.
const (
	constUnknown uint8 = iota
	const0
	const1
)

// Analysis holds the static proofs for one netlist. Construct with New
// (campaign monitors: observation points plus per-zone SENS groups) or
// ForMonitors (explicit functional/diagnostic net lists). All queries
// are read-only and safe for concurrent use.
type Analysis struct {
	n   *netlist.Netlist
	fan []int

	// groups: group 0 is the union of all observation-point nets;
	// groups 1..len(zones) are each zone's SENS effect nets (only when
	// built via New). reach is a per-net bitset of reachable groups,
	// flattened to words uint64 words per net.
	groups int
	words  int
	reach  []uint64

	// monitored marks nets whose value some monitor or peripheral can
	// see directly; such nets are never collapsed away as stems.
	monitored []bool

	constVal []uint8

	// parent is the union-find forest over stuck-at atoms, atom =
	// 2*net + polarity. The root of a class is its smallest atom.
	parent []int32

	// forward adjacency, cached for cone walks.
	gateReaders [][]netlist.GateID
	ffReaders   [][]netlist.FFID
	perif       []perifEdge
}

// New builds the static analysis for a campaign target: monitor group 0
// is the union of all observation points (functional and diagnostic),
// and group 1+z is zone z's SENS effect-net set. The stem-invisibility
// side condition additionally protects every zone seed, kept
// (peripheral-sampled) net, primary input and external net.
func New(a *zones.Analysis) (*Analysis, error) {
	if a == nil || a.N == nil {
		return nil, errors.New("statfault: nil zone analysis")
	}
	n := a.N
	groups := make([][]netlist.NetID, 1+len(a.Zones))
	for _, o := range a.Obs {
		groups[0] = append(groups[0], o.Nets...)
	}
	for z := range a.Zones {
		groups[1+z] = append(groups[1+z], a.EffectNets(z)...)
	}
	monitored := make([]bool, len(n.Nets))
	markMon := func(ids []netlist.NetID) {
		for _, id := range ids {
			if id >= 0 && int(id) < len(monitored) {
				monitored[id] = true
			}
		}
	}
	for _, o := range a.Obs {
		markMon(o.Nets)
	}
	for z := range a.Zones {
		markMon(a.Zones[z].Seeds)
		markMon(a.Zones[z].Outputs)
	}
	markMon(n.Kept())
	for _, p := range n.Inputs {
		markMon(p.Nets)
	}
	for _, p := range n.Externals {
		markMon(p.Nets)
	}
	return build(n, groups, monitored, perifEdges(a))
}

// ForMonitors builds the analysis for an explicit monitor pair: group 0
// is funcObs ∪ diagObs. Stem invisibility protects those nets, primary
// outputs and kept nets; there are no peripheral edges. DRC calls it
// with empty lists for the constant proofs alone.
func ForMonitors(n *netlist.Netlist, funcObs, diagObs []netlist.NetID) (*Analysis, error) {
	if n == nil {
		return nil, errors.New("statfault: nil netlist")
	}
	var g0 []netlist.NetID
	g0 = append(g0, funcObs...)
	g0 = append(g0, diagObs...)
	monitored := make([]bool, len(n.Nets))
	for _, id := range g0 {
		if id >= 0 && int(id) < len(monitored) {
			monitored[id] = true
		}
	}
	for _, p := range n.Outputs {
		for _, id := range p.Nets {
			monitored[id] = true
		}
	}
	for _, id := range n.Kept() {
		monitored[id] = true
	}
	return build(n, [][]netlist.NetID{g0}, monitored, nil)
}

// perifEdge is one conservative dataflow edge through a behavioral
// peripheral: a value sampled on Seed can re-emerge on any of the
// peripheral zone's output (external) nets.
type perifEdge struct {
	seeds []netlist.NetID
	outs  []netlist.NetID
}

func perifEdges(a *zones.Analysis) []perifEdge {
	var edges []perifEdge
	for z := range a.Zones {
		if a.Zones[z].Kind != zones.Peripheral {
			continue
		}
		if len(a.Zones[z].Seeds) == 0 || len(a.Zones[z].Outputs) == 0 {
			continue
		}
		edges = append(edges, perifEdge{seeds: a.Zones[z].Seeds, outs: a.Zones[z].Outputs})
	}
	return edges
}

func build(n *netlist.Netlist, groups [][]netlist.NetID, monitored []bool, perif []perifEdge) (*Analysis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		n:           n,
		fan:         n.FanoutCounts(),
		groups:      len(groups),
		words:       (len(groups) + 63) / 64,
		monitored:   monitored,
		gateReaders: n.GateReaders(),
		ffReaders:   n.FFReaders(),
		perif:       perif,
	}
	a.reach = make([]uint64, len(n.Nets)*a.words)
	for gi, nets := range groups {
		for _, id := range nets {
			if id < 0 || int(id) >= len(n.Nets) {
				continue
			}
			a.reach[int(id)*a.words+gi/64] |= 1 << uint(gi%64)
		}
	}
	a.propagateReach(order, perif)
	a.propagateConst(order)
	a.collapse(order)
	return a, nil
}

// propagateReach computes, per net, the set of monitor groups in its
// forward cone, by pushing group bits backward from monitors to the
// nets that feed them: through gate inputs, flip-flop D/Enable pins
// (state carries a deviation across the edge) and peripheral
// seed→output edges. The reverse-topological inner sweep settles the
// combinational part in one pass; the outer loop iterates to a
// fixpoint across sequential and peripheral cycles.
func (a *Analysis) propagateReach(order []netlist.GateID, perif []perifEdge) {
	n := a.n
	w := a.words
	orInto := func(dst, src netlist.NetID) bool {
		if dst < 0 || src < 0 {
			return false
		}
		changed := false
		for k := 0; k < w; k++ {
			nv := a.reach[int(dst)*w+k] | a.reach[int(src)*w+k]
			if nv != a.reach[int(dst)*w+k] {
				a.reach[int(dst)*w+k] = nv
				changed = true
			}
		}
		return changed
	}
	for {
		changed := false
		for i := len(order) - 1; i >= 0; i-- {
			g := &n.Gates[order[i]]
			for _, in := range g.Inputs {
				if orInto(in, g.Output) {
					changed = true
				}
			}
		}
		for i := range n.FFs {
			ff := &n.FFs[i]
			if orInto(ff.D, ff.Q) {
				changed = true
			}
			if ff.Enable != netlist.InvalidNet && orInto(ff.Enable, ff.Q) {
				changed = true
			}
		}
		for _, e := range perif {
			for _, out := range e.outs {
				for _, seed := range e.seeds {
					if orInto(seed, out) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// propagateConst proves nets constant in every fault-free run. The
// rules mirror the simulator's Kleene evaluation exactly — a gate
// output is proven only when the simulator could never produce a
// different value — and a flip-flop output is constant v only when it
// resets to v and its D cone is proven constant v (then every load
// re-loads v and every hold keeps it, whatever the enable does).
// Primary inputs and peripheral-driven nets are never constant. The
// fixpoint iterates because FF proofs feed combinational proofs and
// vice versa.
func (a *Analysis) propagateConst(order []netlist.GateID) {
	n := a.n
	a.constVal = make([]uint8, len(n.Nets))
	if n.Const0 != netlist.InvalidNet {
		a.constVal[n.Const0] = const0
	}
	if n.Const1 != netlist.InvalidNet {
		a.constVal[n.Const1] = const1
	}
	cv := func(id netlist.NetID) uint8 { return a.constVal[id] }
	for {
		changed := false
		set := func(id netlist.NetID, v uint8) {
			if v != constUnknown && a.constVal[id] == constUnknown {
				a.constVal[id] = v
				changed = true
			}
		}
		for _, gid := range order {
			g := &n.Gates[gid]
			set(g.Output, constGate(g, cv))
		}
		for i := range n.FFs {
			ff := &n.FFs[i]
			d := cv(ff.D)
			if d == const0 && !ff.ResetVal {
				set(ff.Q, const0)
			}
			if d == const1 && ff.ResetVal {
				set(ff.Q, const1)
			}
		}
		if !changed {
			return
		}
	}
}

// constGate returns the proven-constant value of a gate output given
// the proofs on its inputs, or constUnknown.
func constGate(g *netlist.Gate, cv func(netlist.NetID) uint8) uint8 {
	inv := func(v uint8) uint8 {
		switch v {
		case const0:
			return const1
		case const1:
			return const0
		}
		return constUnknown
	}
	switch g.Type {
	case netlist.BUF:
		return cv(g.Inputs[0])
	case netlist.NOT:
		return inv(cv(g.Inputs[0]))
	case netlist.AND, netlist.NAND:
		acc := const1
		for _, in := range g.Inputs {
			switch cv(in) {
			case const0:
				acc = const0
			case constUnknown:
				if acc != const0 {
					acc = constUnknown
				}
			}
			if acc == const0 {
				break
			}
		}
		if g.Type == netlist.NAND {
			return inv(acc)
		}
		return acc
	case netlist.OR, netlist.NOR:
		acc := const0
		for _, in := range g.Inputs {
			switch cv(in) {
			case const1:
				acc = const1
			case constUnknown:
				if acc != const1 {
					acc = constUnknown
				}
			}
			if acc == const1 {
				break
			}
		}
		if g.Type == netlist.NOR {
			return inv(acc)
		}
		return acc
	case netlist.XOR, netlist.XNOR:
		acc := const0
		for _, in := range g.Inputs {
			v := cv(in)
			if v == constUnknown {
				return constUnknown
			}
			if v == const1 {
				acc = inv(acc)
			}
		}
		if g.Type == netlist.XNOR {
			return inv(acc)
		}
		return acc
	case netlist.MUX2:
		sel := cv(g.Inputs[0])
		va, vb := cv(g.Inputs[1]), cv(g.Inputs[2])
		switch sel {
		case const0:
			return va
		case const1:
			return vb
		default:
			// Unknown select: the simulator still yields a defined value
			// when both data inputs agree and are non-X.
			if va != constUnknown && va == vb {
				return va
			}
			return constUnknown
		}
	}
	return constUnknown
}

// ReachesObs reports whether any observation point (functional or
// diagnostic) lies in the forward cone of the net. A fault confined to
// a net where this is false can never change the OBSE/DIAG verdict.
func (a *Analysis) ReachesObs(net netlist.NetID) bool {
	return a.reachesGroup(net, 0)
}

// ReachesZoneEffect reports whether zone z's SENS effect-net set lies
// in the forward cone of the net (only meaningful for analyses built
// with New; ForMonitors has no zone groups and returns false).
func (a *Analysis) ReachesZoneEffect(net netlist.NetID, z int) bool {
	return a.reachesGroup(net, 1+z)
}

func (a *Analysis) reachesGroup(net netlist.NetID, gi int) bool {
	if net < 0 || int(net) >= len(a.n.Nets) || gi < 0 || gi >= a.groups {
		return false
	}
	return a.reach[int(net)*a.words+gi/64]&(1<<uint(gi%64)) != 0
}

// ConstNet reports the proven fault-free constant value of a net.
func (a *Analysis) ConstNet(net netlist.NetID) (v bool, ok bool) {
	if net < 0 || int(net) >= len(a.constVal) {
		return false, false
	}
	switch a.constVal[net] {
	case const0:
		return false, true
	case const1:
		return true, true
	}
	return false, false
}

// Netlist returns the analyzed netlist.
func (a *Analysis) Netlist() *netlist.Netlist { return a.n }

// ConeNets returns the number of nets in the forward cone of influence
// of the net (itself included): every net a deviation starting there
// could ever touch, combinationally, through flip-flops or through
// peripheral dataflow. Cone size is the scheduling weight of a fault
// site — small cones settle fast, huge cones gate everything.
func (a *Analysis) ConeNets(net netlist.NetID) int {
	n := a.n
	if net < 0 || int(net) >= len(n.Nets) {
		return 0
	}
	seen := make([]bool, len(n.Nets))
	queue := []netlist.NetID{net}
	seen[net] = true
	count := 0
	push := func(id netlist.NetID) {
		if id >= 0 && int(id) < len(seen) && !seen[id] {
			seen[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		count++
		for _, gid := range a.gateReaders[id] {
			push(n.Gates[gid].Output)
		}
		for _, fid := range a.ffReaders[id] {
			push(n.FFs[fid].Q)
		}
		for _, e := range a.perif {
			for _, seed := range e.seeds {
				if seed == id {
					for _, out := range e.outs {
						push(out)
					}
					break
				}
			}
		}
	}
	return count
}
