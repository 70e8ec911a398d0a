// Package zones implements the paper's Section 3: automatic extraction
// of sensible zones and observation points from the synthesized netlist,
// fan-in logic-cone statistics, shared-gate correlation between zones,
// local/wide/global fault classification and main/secondary effect
// analysis.
//
// A sensible zone is an elementary failure point of the SoC in which one
// or more physical faults converge to a failure: register groups
// (compacted flip-flop buses), primary inputs and outputs, critical
// high-fanout nets, and entire sub-blocks. Observation points are
// functional outputs, diagnostic alarms, or other zones.
package zones

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// Kind classifies a sensible zone.
type Kind uint8

// Zone kinds, following the paper's list of valid definitions.
const (
	Register    Kind = iota // memory elements (compacted register buses)
	Input                   // primary input port
	Output                  // primary output port
	CriticalNet             // clock/reset/high-fanout nets
	SubBlock                // an entire sub-block with few outputs
	Peripheral              // behavioral component boundary (memory array)
)

var kindNames = [...]string{"register", "input", "output", "critical-net", "sub-block", "peripheral"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Zone is one sensible zone.
type Zone struct {
	ID    int
	Kind  Kind
	Name  string
	Block string
	// FFs are the zone's flip-flops (register zones).
	FFs []netlist.FFID
	// Seeds are the nets whose driving cones feed the zone's state: D and
	// enable nets for registers, port nets for outputs, the net itself
	// for critical nets, block boundary nets for sub-blocks.
	Seeds []netlist.NetID
	// Outputs are the nets through which a zone failure leaves the zone:
	// Q nets for registers, the port nets for inputs.
	Outputs []netlist.NetID
}

// ObsKind classifies an observation point.
type ObsKind uint8

// Observation points: functional primary outputs and diagnostic alarms.
const (
	Functional ObsKind = iota
	Diagnostic
)

func (k ObsKind) String() string {
	if k == Functional {
		return "functional"
	}
	return "diagnostic"
}

// ObsPoint is a named observation point (a primary output port).
type ObsPoint struct {
	ID   int
	Kind ObsKind
	Name string
	Nets []netlist.NetID
}

// Cone summarizes a zone's fan-in logic cone.
type Cone struct {
	// Gates in the cone, sorted by ID.
	Gates []netlist.GateID
	// Leaves are the cone's boundary inputs: FF outputs, primary inputs,
	// peripheral nets.
	Leaves []netlist.NetID
	// Depth is the maximum gate depth from a leaf to a seed.
	Depth int
}

// GateCount returns the number of gates in the cone.
func (c *Cone) GateCount() int { return len(c.Gates) }

// Config controls extraction.
type Config struct {
	// CriticalFanout promotes nets with at least this fanout to critical-
	// net zones; 0 disables.
	CriticalFanout int
	// SubBlockMinGates / SubBlockMaxOutputs promote hierarchical blocks
	// to sub-block zones when they have at least MinGates gates and at
	// most MaxOutputs boundary output nets; MinGates 0 disables.
	SubBlockMinGates   int
	SubBlockMaxOutputs int
	// DiagPrefix marks output ports whose name starts with this prefix
	// as diagnostic observation points (default "alarm").
	DiagPrefix string
	// ExtraZones appends manually defined zones (e.g. the memory array
	// peripheral); their ID fields are reassigned.
	ExtraZones []Zone
}

// DefaultConfig mirrors the extraction tool's defaults.
func DefaultConfig() Config {
	return Config{
		CriticalFanout:     48,
		SubBlockMinGates:   0,
		SubBlockMaxOutputs: 8,
		DiagPrefix:         "alarm",
	}
}

// Analysis is the extraction result plus derived statistics.
type Analysis struct {
	N     *netlist.Netlist
	Zones []Zone
	Obs   []ObsPoint
	// Cones[i] is the fan-in cone of Zones[i].
	Cones []Cone

	// zoneTouch[g] = number of register/output/critical zones whose cone
	// contains gate g; drives local/wide/global classification.
	zoneTouch []int
	// classifiedZones is the number of zones participating in zoneTouch.
	classifiedZones int

	// ffZone maps each flip-flop to its register zone.
	ffZone map[netlist.FFID]int
	// netZone maps zone output nets back to zones (for effect migration).
	netZone map[netlist.NetID][]int

	// directObs[z] = observation points combinationally reachable from
	// zone z's outputs (main-effect candidates).
	directObs [][]int
	// nextZones[z] = zones reachable in one sequential step.
	nextZones [][]int

	byName map[string]int
}

// Extract runs the zone-extraction tool over a validated netlist.
func Extract(n *netlist.Netlist, cfg Config) (*Analysis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if cfg.DiagPrefix == "" {
		cfg.DiagPrefix = "alarm"
	}
	a := &Analysis{
		N:       n,
		ffZone:  make(map[netlist.FFID]int),
		netZone: make(map[netlist.NetID][]int),
		byName:  make(map[string]int),
	}

	// 1. Register zones: compact flip-flops into RTL register buses.
	groups := n.RegisterGroups()
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ffs := groups[name]
		sort.Slice(ffs, func(i, j int) bool { return ffs[i] < ffs[j] })
		z := Zone{Kind: Register, Name: name, Block: n.FFs[ffs[0]].Block, FFs: ffs}
		for _, id := range ffs {
			ff := &n.FFs[id]
			z.Seeds = append(z.Seeds, ff.D)
			if ff.Enable != netlist.InvalidNet {
				z.Seeds = append(z.Seeds, ff.Enable)
			}
			z.Outputs = append(z.Outputs, ff.Q)
		}
		a.addZone(z)
	}

	// 2. Primary input and output zones.
	for _, p := range n.Inputs {
		a.addZone(Zone{Kind: Input, Name: "in:" + p.Name, Outputs: append([]netlist.NetID(nil), p.Nets...)})
	}
	for _, p := range n.Outputs {
		a.addZone(Zone{Kind: Output, Name: "out:" + p.Name, Seeds: append([]netlist.NetID(nil), p.Nets...)})
	}

	// 3. Critical nets by fanout.
	if cfg.CriticalFanout > 0 {
		fan := n.FanoutCounts()
		for id, f := range fan {
			nid := netlist.NetID(id)
			if f < cfg.CriticalFanout {
				continue
			}
			if _, isConst := n.IsConst(nid); isConst {
				continue
			}
			a.addZone(Zone{
				Kind:    CriticalNet,
				Name:    "net:" + n.NetName(nid),
				Seeds:   []netlist.NetID{nid},
				Outputs: []netlist.NetID{nid},
			})
		}
	}

	// 4. Sub-block zones.
	if cfg.SubBlockMinGates > 0 {
		a.extractSubBlocks(cfg)
	}

	// 5. Manual zones (peripherals).
	for _, z := range cfg.ExtraZones {
		z.Kind = Peripheral
		a.addZone(z)
	}

	// Observation points from output ports.
	for _, p := range n.Outputs {
		kind := Functional
		if strings.HasPrefix(p.Name, cfg.DiagPrefix) {
			kind = Diagnostic
		}
		a.Obs = append(a.Obs, ObsPoint{
			ID: len(a.Obs), Kind: kind, Name: p.Name,
			Nets: append([]netlist.NetID(nil), p.Nets...),
		})
	}

	a.computeCones()
	a.computeTouch()
	a.computeEffects()
	return a, nil
}

func (a *Analysis) addZone(z Zone) {
	z.ID = len(a.Zones)
	if _, dup := a.byName[z.Name]; dup {
		z.Name = fmt.Sprintf("%s#%d", z.Name, z.ID)
	}
	a.byName[z.Name] = z.ID
	for _, ff := range z.FFs {
		a.ffZone[ff] = z.ID
	}
	for _, net := range z.Outputs {
		a.netZone[net] = append(a.netZone[net], z.ID)
	}
	a.Zones = append(a.Zones, z)
}

// extractSubBlocks promotes hierarchical blocks with few boundary
// outputs to zones.
func (a *Analysis) extractSubBlocks(cfg Config) {
	n := a.N
	counts := n.BlockGateCount()
	// Boundary output nets per block: nets driven by a block gate and
	// read outside the block (or by FFs/ports).
	readers := make(map[netlist.NetID][]string) // net -> reader block paths ("" for FF/port)
	for i := range n.Gates {
		for _, in := range n.Gates[i].Inputs {
			readers[in] = append(readers[in], n.Gates[i].Block)
		}
	}
	for i := range n.FFs {
		readers[n.FFs[i].D] = append(readers[n.FFs[i].D], "\x00ff")
		if n.FFs[i].Enable != netlist.InvalidNet {
			readers[n.FFs[i].Enable] = append(readers[n.FFs[i].Enable], "\x00ff")
		}
	}
	for _, p := range n.Outputs {
		for _, id := range p.Nets {
			readers[id] = append(readers[id], "\x00port")
		}
	}
	boundary := make(map[string][]netlist.NetID)
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Block == "" {
			continue
		}
		for _, rb := range readers[g.Output] {
			if rb != g.Block {
				boundary[g.Block] = append(boundary[g.Block], g.Output)
				break
			}
		}
	}
	blocks := n.Blocks()
	for _, b := range blocks {
		if counts[b] < cfg.SubBlockMinGates {
			continue
		}
		outs := boundary[b]
		if len(outs) == 0 || len(outs) > cfg.SubBlockMaxOutputs {
			continue
		}
		sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
		a.addZone(Zone{
			Kind:    SubBlock,
			Name:    "blk:" + b,
			Block:   b,
			Seeds:   outs,
			Outputs: outs,
		})
	}
}

// computeCones extracts the backward cone of every zone.
func (a *Analysis) computeCones() {
	n := a.N
	a.Cones = make([]Cone, len(a.Zones))
	for zi := range a.Zones {
		z := &a.Zones[zi]
		if len(z.Seeds) == 0 {
			continue // no internal cone (inputs, seedless peripherals)
		}
		seen := make(map[netlist.GateID]bool)
		leafSet := make(map[netlist.NetID]bool)
		depth := make(map[netlist.GateID]int)
		var maxDepth int
		var visit func(net netlist.NetID) int
		visit = func(net netlist.NetID) int {
			g, ok := n.DriverGate(net)
			if !ok {
				// FF output, primary input, peripheral, const: leaf.
				if _, isConst := n.IsConst(net); !isConst {
					leafSet[net] = true
				}
				return 0
			}
			if d, done := depth[g.ID]; done {
				return d
			}
			if seen[g.ID] {
				return 0 // cycle guard (validated acyclic, but be safe)
			}
			seen[g.ID] = true
			d := 0
			for _, in := range g.Inputs {
				if id := visit(in); id > d {
					d = id
				}
			}
			d++
			depth[g.ID] = d
			if d > maxDepth {
				maxDepth = d
			}
			return d
		}
		for _, seed := range z.Seeds {
			visit(seed)
		}
		cone := Cone{Depth: maxDepth}
		for g := range seen {
			cone.Gates = append(cone.Gates, g)
		}
		sort.Slice(cone.Gates, func(i, j int) bool { return cone.Gates[i] < cone.Gates[j] })
		for l := range leafSet {
			cone.Leaves = append(cone.Leaves, l)
		}
		sort.Slice(cone.Leaves, func(i, j int) bool { return cone.Leaves[i] < cone.Leaves[j] })
		a.Cones[zi] = cone
	}
}

// computeTouch counts, per gate, how many classified-zone cones contain
// it. Register, output and critical-net zones participate; sub-blocks
// overlap register cones by construction and are excluded.
func (a *Analysis) computeTouch() {
	a.zoneTouch = make([]int, len(a.N.Gates))
	for zi := range a.Zones {
		switch a.Zones[zi].Kind {
		case Register, Output, CriticalNet:
			a.classifiedZones++
			for _, g := range a.Cones[zi].Gates {
				a.zoneTouch[g]++
			}
		}
	}
}

// computeEffects derives main/secondary effect reachability: directObs
// (combinational paths from zone outputs to observation ports) and
// nextZones (zone-to-zone sequential migration edges).
func (a *Analysis) computeEffects() {
	n := a.N
	// net -> gates reading it.
	readers := make(map[netlist.NetID][]netlist.GateID)
	for i := range n.Gates {
		for _, in := range n.Gates[i].Inputs {
			readers[in] = append(readers[in], n.Gates[i].ID)
		}
	}
	// net -> FFs sampling it.
	ffReaders := make(map[netlist.NetID][]netlist.FFID)
	for i := range n.FFs {
		ffReaders[n.FFs[i].D] = append(ffReaders[n.FFs[i].D], netlist.FFID(i))
		if en := n.FFs[i].Enable; en != netlist.InvalidNet {
			ffReaders[en] = append(ffReaders[en], netlist.FFID(i))
		}
	}
	// net -> observation points containing it.
	obsNets := make(map[netlist.NetID][]int)
	for oi := range a.Obs {
		for _, id := range a.Obs[oi].Nets {
			obsNets[id] = append(obsNets[id], oi)
		}
	}
	// net -> peripheral zones sampling it (behavioral components are
	// sequential elements: reaching their input nets migrates the
	// failure into the peripheral zone).
	perifSeeds := make(map[netlist.NetID][]int)
	for zi := range a.Zones {
		if a.Zones[zi].Kind != Peripheral {
			continue
		}
		for _, id := range a.Zones[zi].Seeds {
			perifSeeds[id] = append(perifSeeds[id], zi)
		}
	}
	a.directObs = make([][]int, len(a.Zones))
	a.nextZones = make([][]int, len(a.Zones))
	for zi := range a.Zones {
		obsSet := make(map[int]bool)
		zoneSet := make(map[int]bool)
		visited := make(map[netlist.NetID]bool)
		var walk func(net netlist.NetID)
		walk = func(net netlist.NetID) {
			if visited[net] {
				return
			}
			visited[net] = true
			for _, oi := range obsNets[net] {
				obsSet[oi] = true
			}
			for _, ff := range ffReaders[net] {
				if tz, ok := a.ffZone[ff]; ok && tz != zi {
					zoneSet[tz] = true
				}
			}
			for _, tz := range perifSeeds[net] {
				if tz != zi {
					zoneSet[tz] = true
				}
			}
			for _, gid := range readers[net] {
				walk(n.Gates[gid].Output)
			}
		}
		for _, out := range a.EffectNets(zi) {
			walk(out)
		}
		a.directObs[zi] = sortedKeys(obsSet)
		a.nextZones[zi] = sortedKeys(zoneSet)
	}
}

// EffectNets returns the nets through which a zone's failure manifests:
// its output nets, or — for zones defined purely by their fan-in, like
// primary-output zones — the seed nets themselves.
func (a *Analysis) EffectNets(zone int) []netlist.NetID {
	z := &a.Zones[zone]
	if len(z.Outputs) > 0 {
		return z.Outputs
	}
	return z.Seeds
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ZoneByName finds a zone by its extracted name.
func (a *Analysis) ZoneByName(name string) (*Zone, bool) {
	if id, ok := a.byName[name]; ok {
		return &a.Zones[id], true
	}
	return nil, false
}

// SharedGates counts gates common to two zone cones.
func (a *Analysis) SharedGates(i, j int) int {
	gi, gj := a.Cones[i].Gates, a.Cones[j].Gates
	shared, x, y := 0, 0, 0
	for x < len(gi) && y < len(gj) {
		switch {
		case gi[x] == gj[y]:
			shared++
			x++
			y++
		case gi[x] < gj[y]:
			x++
		default:
			y++
		}
	}
	return shared
}

// Correlation is a pair of zones sharing cone gates — wide-fault
// exposure between the two zones.
type Correlation struct {
	A, B   int
	Shared int
}

// Correlations lists zone pairs sharing at least minShared cone gates,
// most-shared first.
func (a *Analysis) Correlations(minShared int) []Correlation {
	var out []Correlation
	for i := 0; i < len(a.Zones); i++ {
		if len(a.Cones[i].Gates) == 0 {
			continue
		}
		for j := i + 1; j < len(a.Zones); j++ {
			if len(a.Cones[j].Gates) == 0 {
				continue
			}
			if s := a.SharedGates(i, j); s >= minShared {
				out = append(out, Correlation{A: i, B: j, Shared: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shared != out[j].Shared {
			return out[i].Shared > out[j].Shared
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// GateTouch returns how many classified zone cones contain the gate.
func (a *Analysis) GateTouch(g netlist.GateID) int { return a.zoneTouch[g] }

// ClassifyGate classifies a fault in the given gate as local, wide or
// global per Section 3 (globalFrac as in faults.Classify).
func (a *Analysis) ClassifyGate(g netlist.GateID, globalFrac float64) faults.Class {
	return faults.Classify(a.zoneTouch[g], a.classifiedZones, globalFrac)
}

// MainEffects returns the observation points combinationally reachable
// from the zone — where a zone failure manifests first if not masked.
func (a *Analysis) MainEffects(zone int) []int { return a.directObs[zone] }

// SecondaryEffects returns observation points reachable only through
// migration into other zones (Fig. 3), excluding the main effects.
func (a *Analysis) SecondaryEffects(zone int) []int {
	main := make(map[int]bool)
	for _, o := range a.directObs[zone] {
		main[o] = true
	}
	seenZ := map[int]bool{zone: true}
	secondary := make(map[int]bool)
	queue := append([]int(nil), a.nextZones[zone]...)
	for len(queue) > 0 {
		z := queue[0]
		queue = queue[1:]
		if seenZ[z] {
			continue
		}
		seenZ[z] = true
		for _, o := range a.directObs[z] {
			if !main[o] {
				secondary[o] = true
			}
		}
		queue = append(queue, a.nextZones[z]...)
	}
	return sortedKeys(secondary)
}

// FunctionalReachNets returns, per net, whether any functional (non-
// diagnostic) observation point is reachable from it — combinationally,
// through flip-flops, or through behavioral peripherals. Nets outside
// this set exist only to feed diagnostics (checker comparators, alarm
// conditioning): they cannot change in a fault-free run by construction
// and are excluded from workload toggle targets.
func (a *Analysis) FunctionalReachNets() []bool {
	n := a.N
	reach := make([]bool, len(n.Nets))
	queue := make([]netlist.NetID, 0, len(n.Nets))
	mark := func(id netlist.NetID) {
		if id >= 0 && int(id) < len(reach) && !reach[id] {
			reach[id] = true
			queue = append(queue, id)
		}
	}
	for _, o := range a.Obs {
		if o.Kind != Functional {
			continue
		}
		for _, id := range o.Nets {
			mark(id)
		}
	}
	// Peripheral output -> seed dependency (data flows through it).
	perifOut := make(map[netlist.NetID][]netlist.NetID)
	for zi := range a.Zones {
		if a.Zones[zi].Kind != Peripheral {
			continue
		}
		for _, out := range a.Zones[zi].Outputs {
			perifOut[out] = append(perifOut[out], a.Zones[zi].Seeds...)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if g, ok := n.DriverGate(id); ok {
			for _, in := range g.Inputs {
				mark(in)
			}
			continue
		}
		if ff, ok := n.DriverFF(id); ok {
			mark(ff.D)
			mark(ff.Enable)
			continue
		}
		for _, seed := range perifOut[id] {
			mark(seed)
		}
	}
	return reach
}

// Summary renders a one-line overview.
func (a *Analysis) Summary() string {
	byKind := map[Kind]int{}
	for _, z := range a.Zones {
		byKind[z.Kind]++
	}
	return fmt.Sprintf("%d sensible zones (%d register, %d input, %d output, %d critical-net, %d sub-block, %d peripheral), %d observation points",
		len(a.Zones), byKind[Register], byKind[Input], byKind[Output],
		byKind[CriticalNet], byKind[SubBlock], byKind[Peripheral], len(a.Obs))
}
