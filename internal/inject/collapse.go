package inject

import (
	"sort"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/statfault"
)

// planCollapse is the static pre-pass over one campaign plan: which
// rows are statically classified (their full result row is known
// without simulating a cycle) and which rows are campaign-exact
// equivalents of an earlier representative (their result row is copied
// from the representative during the in-order merge). Both prunings
// are sound by construction — the report stays byte-identical to the
// uncollapsed run — and the pre-pass is disabled entirely whenever a
// wall-clock watchdog is armed (the one supervision mode whose verdicts
// are not a pure function of the plan). The table covers the whole plan
// and is built once per prepared campaign; every range reads it.
type planCollapse struct {
	// dep[i] >= 0 names the representative plan row whose outcome row i
	// inherits; -1 means row i is simulated (or statically classified).
	dep []int
	// static[i] marks rows whose result is staticSilent(plan[i]).
	static []bool
}

// collapsePlan runs the static pre-pass. A nil return means "nothing
// to prune" (or the analysis could not be built) and the campaign
// proceeds exactly as without -collapse.
//
// Static classification uses three proof families:
//
//   - unobservable: no observation point and no net of the injected
//     zone's SENS group lies in the fault site's forward cone, so no
//     monitor can ever deviate (for flips only the observation cone
//     matters — SENS is implied for flips by the runner);
//   - untestable: the stuck-at polarity equals the net's proven
//     fault-free constant, so the faulty machine is the golden machine;
//   - golden-quiescent: the recorded golden trace holds the forced
//     value at every instant the force is active (a boundary flip that
//     picked the resting polarity, the dominant case for transient
//     plans), so forcing it changes nothing.
//
// All three produce the exact serial result row, staticSilent.
//
// Classification is skipped when a cycle budget could abort mid-trace
// (the serial row would then be Aborted, not Silent); equivalence
// collapsing stays on — equivalent rows share the same injection cycle
// and duration, so they abort identically too. The quiescence streams
// live only for the duration of this call.
func (t *Target) collapsePlan(g *Golden, plan []Injection) *planCollapse {
	sf, err := statfault.New(t.Analysis)
	if err != nil {
		return nil
	}
	cb := t.Supervision.CycleBudget
	staticOK := cb <= 0 || cb >= g.Trace.Cycles()
	var q *quiescence
	if staticOK {
		q = t.traceQuiescence(g, plan)
	}
	pc := &planCollapse{
		dep:    make([]int, len(plan)),
		static: make([]bool, len(plan)),
	}
	pruned := 0
	seen := map[planKey]int{}
	for i := range plan {
		pc.dep[i] = -1
		if staticOK && provablySilent(sf, q, plan[i], g.Trace.Cycles()) {
			pc.static[i] = true
			pruned++
			continue
		}
		key, ok := collapseKey(sf, plan[i])
		if !ok {
			continue
		}
		if r, dup := seen[key]; dup {
			pc.dep[i] = r
			pruned++
		} else {
			seen[key] = i
		}
	}
	if pruned == 0 {
		return nil
	}
	return pc
}

// staticSilent is the result row every static proof produces: the row
// runOne builds when no monitor ever deviates — Silent, no deviations,
// FirstDevCycle -1, SENS false except for flips, where the runner
// forces it.
func staticSilent(inj Injection) ExpResult {
	return ExpResult{Injection: inj, Outcome: Silent, Sens: inj.Fault.Kind == faults.Flip, FirstDevCycle: -1}
}

// provablySilent reports whether a static proof classifies the planned
// injection as staticSilent; false means no proof applies and the row
// must be simulated.
func provablySilent(sf *statfault.Analysis, q *quiescence, inj Injection, cycles int) bool {
	f := inj.Fault
	if inj.Cycle >= cycles {
		// The fault never applies and the monitors never arm.
		return true
	}
	n := sf.Netlist()
	switch f.Kind {
	case faults.SA0, faults.SA1:
		v := f.Kind == faults.SA1
		if f.Site == faults.SitePin {
			if f.Gate < 0 || int(f.Gate) >= len(n.Gates) {
				return false
			}
			g := &n.Gates[f.Gate]
			if f.Pin < 0 || f.Pin >= len(g.Inputs) {
				// An out-of-range pin force is never read: a no-op.
				return true
			}
			// A pin force perturbs nothing upstream of the gate output.
			if !sf.ReachesObs(g.Output) && !sf.ReachesZoneEffect(g.Output, inj.Zone) {
				return true
			}
			// Quiescent when the pin's net already carries the forced
			// value whenever the gate evaluates under the force.
			if q != nil && q.netQuiescent(g.Inputs[f.Pin], sim.FromBool(v), inj.Cycle, inj.Duration) {
				return true
			}
			return false
		}
		if cv, ok := sf.ConstNet(f.Net); ok && cv == v {
			return true
		}
		if !sf.ReachesObs(f.Net) && !sf.ReachesZoneEffect(f.Net, inj.Zone) {
			return true
		}
		if q != nil && q.netQuiescent(f.Net, sim.FromBool(v), inj.Cycle, inj.Duration) {
			return true
		}
	case faults.Flip:
		if f.FF < 0 || int(f.FF) >= len(n.FFs) {
			return false
		}
		// SENS is implied by the runner for flips, so only the
		// observation cone decides the verdict.
		if !sf.ReachesObs(n.FFs[f.FF].Q) {
			return true
		}
		// Flipping an X leaves an X (Kleene complement).
		if q != nil && q.ffX(f.FF, inj.Cycle) {
			return true
		}
	case faults.DelayX:
		if !sf.ReachesObs(f.Net) && !sf.ReachesZoneEffect(f.Net, inj.Zone) {
			return true
		}
		if q != nil && q.netQuiescent(f.Net, sim.VX, inj.Cycle, inj.Duration) {
			return true
		}
	}
	return false
}

// planKey identifies a campaign-exact equivalence bucket: two rows with
// the same key produce byte-identical outcome fields (the header —
// Class, Mode, the fault's own description — stays per-row).
type planKey struct {
	zone, cycle, dur int
	tag              uint8
	a, b             int32
}

const (
	keySAAtom  uint8 = iota // a = canonical stuck-at atom
	keyFlip                 // a = FF
	keyDelay                // a = net (X is not a controlling value; no atom rules)
	keyPinSA                // a = gate, b = pin<<1|v (non-collapsible pin fault)
	keyBridgeA              // a,b = sorted nets, wired-AND
	keyBridgeO              // a,b = sorted nets, wired-OR
)

func collapseKey(sf *statfault.Analysis, inj Injection) (planKey, bool) {
	k := planKey{zone: inj.Zone, cycle: inj.Cycle, dur: inj.Duration}
	f := inj.Fault
	switch f.Kind {
	case faults.SA0, faults.SA1:
		v := f.Kind == faults.SA1
		if f.Site == faults.SitePin {
			if at, ok := sf.PinAtom(f.Gate, f.Pin, v); ok {
				k.tag, k.a = keySAAtom, int32(at)
			} else {
				vb := int32(0)
				if v {
					vb = 1
				}
				k.tag, k.a, k.b = keyPinSA, int32(f.Gate), int32(f.Pin)<<1|vb
			}
		} else {
			k.tag, k.a = keySAAtom, int32(sf.Canon(f.Net, v))
		}
	case faults.Flip:
		k.tag, k.a = keyFlip, int32(f.FF)
	case faults.DelayX:
		k.tag, k.a = keyDelay, int32(f.Net)
	case faults.BridgeAND, faults.BridgeOR:
		a, b := f.Net, f.Net2
		if b < a {
			a, b = b, a
		}
		k.tag, k.a, k.b = keyBridgeA, int32(a), int32(b)
		if f.Kind == faults.BridgeOR {
			k.tag = keyBridgeO
		}
	default:
		return planKey{}, false
	}
	return k, true
}

// quiescence holds the golden value streams of the plan's fault sites
// at the two instants a force can matter: settled before the clock edge
// (what flip-flops latch and peripherals sample) and settled after it
// (what the monitors read). Recorded by one extra fault-free replay on
// a kernel lane, on the campaign's own cycle driver.
type quiescence struct {
	cycles int
	pre    map[netlist.NetID][]sim.Value
	post   map[netlist.NetID][]sim.Value
	ffPost map[netlist.FFID][]sim.Value
}

// traceQuiescence replays the golden workload once, sampling the
// candidate fault-site nets of the plan. Returns nil (quiescence rules
// off) when the replica cannot run.
func (t *Target) traceQuiescence(g *Golden, plan []Injection) *quiescence {
	n := t.Analysis.N
	netSet := map[netlist.NetID]bool{}
	ffSet := map[netlist.FFID]bool{}
	for i := range plan {
		f := plan[i].Fault
		switch f.Kind {
		case faults.SA0, faults.SA1:
			if f.Site == faults.SitePin {
				if f.Gate >= 0 && int(f.Gate) < len(n.Gates) {
					gg := &n.Gates[f.Gate]
					if f.Pin >= 0 && f.Pin < len(gg.Inputs) {
						netSet[gg.Inputs[f.Pin]] = true
					}
				}
			} else if f.Net >= 0 && int(f.Net) < len(n.Nets) {
				netSet[f.Net] = true
			}
		case faults.DelayX:
			if f.Net >= 0 && int(f.Net) < len(n.Nets) {
				netSet[f.Net] = true
			}
		case faults.Flip:
			if f.FF >= 0 && int(f.FF) < len(n.FFs) {
				ffSet[f.FF] = true
			}
		}
	}
	tr := g.Trace
	q := &quiescence{
		cycles: tr.Cycles(),
		pre:    map[netlist.NetID][]sim.Value{},
		post:   map[netlist.NetID][]sim.Value{},
		ffPost: map[netlist.FFID][]sim.Value{},
	}
	if len(netSet) == 0 && len(ffSet) == 0 {
		return q
	}
	nets := make([]netlist.NetID, 0, len(netSet))
	for id := range netSet { //det:order sorted below
		nets = append(nets, id)
		q.pre[id] = make([]sim.Value, tr.Cycles())
		q.post[id] = make([]sim.Value, tr.Cycles())
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i] < nets[j] })
	ffs := make([]netlist.FFID, 0, len(ffSet))
	for id := range ffSet { //det:order sorted below
		ffs = append(ffs, id)
		q.ffPost[id] = make([]sim.Value, tr.Cycles())
	}
	sort.Slice(ffs, func(i, j int) bool { return ffs[i] < ffs[j] })
	d, err := t.coldLane(g.prog, tr, g.ports)
	if err != nil {
		return nil
	}
	for c := 0; c < tr.Cycles(); c++ {
		d.eval(c)
		for _, id := range nets {
			q.pre[id][c] = d.m.NetValue(0, id)
		}
		d.step()
		for _, id := range nets {
			q.post[id][c] = d.m.NetValue(0, id)
		}
		for _, id := range ffs {
			q.ffPost[id][c] = d.m.FFValue(0, id)
		}
	}
	t.Telemetry.AddSimCycles(int64(tr.Cycles()))
	return q
}

// netQuiescent reports whether forcing the net to v over the injection
// window provably changes nothing: the golden net already holds v at
// every settled instant the force is visible. The force applies after
// the edge of cycle c and releases after the edge of cycle c+d (never,
// for d == 0): the monitors read post-edge values for cycles [c,
// removeAt), and flip-flops/peripherals sample pre-edge values for
// cycles (c, removeAt].
func (q *quiescence) netQuiescent(net netlist.NetID, v sim.Value, c, d int) bool {
	pre, post := q.pre[net], q.post[net]
	if pre == nil {
		return false
	}
	removeAt := q.cycles
	if d > 0 {
		removeAt = c + d
	}
	for k := c; k < q.cycles && k < removeAt; k++ {
		if post[k] != v {
			return false
		}
	}
	for k := c + 1; k < q.cycles && k <= removeAt; k++ {
		if pre[k] != v {
			return false
		}
	}
	return true
}

// ffX reports whether the flip-flop state a flip would invert is X at
// the injection instant — the Kleene complement of X is X, so the flip
// is a no-op.
func (q *quiescence) ffX(ff netlist.FFID, c int) bool {
	st := q.ffPost[ff]
	return st != nil && c >= 0 && c < len(st) && st[c] == sim.VX
}
