package inject

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/zones"
)

// This file is the experiment loop of the campaign engine: up to 64
// experiments share one compiled simc.Machine, one bit-lane each. Every
// lane follows the protocol of the scalar reference (Target.RunOne) —
// warm start, fault apply/remove after the edge, SENS/OBSE/DIAG
// monitors against the golden traces, per-lane cycle-budget aborts and
// per-lane early retirement — so the batch results demux into the
// in-order merge and the report does not depend on the batch width.

// UnsupportedFaultError is the failure of a plan row whose fault the
// lane kernel has no model for. Every fault the planners emit has one;
// a hand-written row that does not fails like any other experiment,
// under the campaign's retry/quarantine policy.
type UnsupportedFaultError struct {
	Kind faults.Kind
	Site faults.SiteKind
}

func (e *UnsupportedFaultError) Error() string {
	return fmt.Sprintf("inject: the lane kernel has no model for a %v fault at a %v site", e.Kind, e.Site)
}

// batchable reports whether the compiled kernel can host the fault in a
// lane.
func batchable(f faults.Fault) bool {
	switch f.Kind {
	case faults.SA0, faults.SA1:
		return f.Site == faults.SiteNet || f.Site == faults.SitePin
	case faults.DelayX:
		return f.Site == faults.SiteNet
	case faults.Flip:
		return f.Site == faults.SiteFF
	case faults.BridgeAND, faults.BridgeOR:
		return f.Site == faults.SiteNet
	}
	return false
}

// laneWidth is the batch width Target.Lanes selects: the 64 lanes of a
// machine word unless a narrower one is asked for.
func laneWidth(lanes int) int {
	if lanes <= 0 || lanes > 64 {
		return 64
	}
	return lanes
}

// buildUnits partitions the pending plan indices of the span into work
// units: sorted by (injection cycle, plan index) — so the lanes of one
// batch want the same golden snapshot — and chunked into units of up to
// lanes members. Units are ordered by their lowest plan index, so the
// claim cursor hands rows out in roughly ascending order. Rows the
// static pre-pass collapsed onto an in-span row (from[k] >= 0; from is
// nil without the pre-pass) are excluded: they inherit their result
// after the drain instead of occupying a lane.
func buildUnits(st *campaignState, plan []Injection, lanes int, from []int) [][]int {
	var units [][]int
	var batch []int
	for k := range st.slots {
		if st.slots[k].done || from != nil && from[k] >= 0 {
			continue
		}
		batch = append(batch, st.lo+k)
	}
	sort.Slice(batch, func(x, y int) bool {
		a, b := batch[x], batch[y]
		if plan[a].Cycle != plan[b].Cycle {
			return plan[a].Cycle < plan[b].Cycle
		}
		return a < b
	})
	for len(batch) > 0 {
		n := min(lanes, len(batch))
		units = append(units, batch[:n])
		batch = batch[n:]
	}
	sort.Slice(units, func(x, y int) bool {
		return minIndex(units[x]) < minIndex(units[y])
	})
	return units
}

func minIndex(unit []int) int {
	m := unit[0]
	for _, i := range unit[1:] {
		if i < m {
			m = i
		}
	}
	return m
}

// runBatchRecovered is runBatch with panic isolation (a diverging
// peripheral model, an out-of-range fault site from a hand-written
// plan): a failing batch is discarded whole, and the caller runs every
// member again alone.
func (p *Prepared) runBatchRecovered(idxs []int) (res []ExpResult, err error) {
	tel := p.t.Telemetry
	bsp := tel.BatchStart(len(idxs))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lane batch panic: %v", r)
		}
		tel.BatchDone(bsp, len(idxs))
	}()
	return p.runBatch(idxs)
}

// laneExp is the per-lane bookkeeping of one batch member.
type laneExp struct {
	inj Injection
	bit uint64

	netRef simc.ForceRef
	hasNet bool
	pinRef simc.ForceRef
	hasPin bool
	brRef  simc.BridgeRef
	hasBr  bool

	// abortAt is the absolute trace cycle where the cooperative cycle
	// budget fires for this lane (-1 = no budget). The skipped
	// warm-start prefix is charged to the budget, so the abort cycle is
	// the same as a cold run's.
	abortAt int

	effNets   []netlist.NetID
	zoneTrace []uint64
}

// runBatch executes up to 64 planned experiments in lockstep, one per
// bit-lane of a compiled machine, and returns their results in idxs
// order. Any error (or panic, via runBatchRecovered) means no result
// was produced for any member.
func (p *Prepared) runBatch(idxs []int) ([]ExpResult, error) {
	t, g, plan := &p.t, p.g, p.plan
	a := t.Analysis
	tr := g.Trace
	lanes := len(idxs)
	if lanes > 64 {
		return nil, fmt.Errorf("inject: lanes: batch of %d exceeds the 64-lane word", lanes)
	}

	m := simc.NewMachine(g.prog)
	d := &cycleDriver{m: m, tr: tr, ports: g.ports, lanes: make([]laneIO, lanes)}
	lcs := make([]laneExp, lanes)
	minCycle := plan[idxs[0]].Cycle
	for k, i := range idxs {
		inj := plan[i]
		lc := &lcs[k]
		lc.inj = inj
		lc.bit = uint64(1) << uint(k)
		lc.effNets = a.EffectNets(inj.Zone)
		lc.zoneTrace = g.zoneVals[inj.Zone]
		if inj.Cycle < minCycle {
			minCycle = inj.Cycle
		}
		f := inj.Fault
		switch {
		case !batchable(f):
			return nil, &UnsupportedFaultError{Kind: f.Kind, Site: f.Site}
		case f.Kind == faults.Flip:
			// State flips need no force point; FlipFF hits the lane mask.
		case f.Kind == faults.BridgeAND || f.Kind == faults.BridgeOR:
			lc.brRef = m.AddBridge(f.Net, f.Net2, f.Kind == faults.BridgeAND)
			lc.hasBr = true
		case f.Site == faults.SitePin:
			ref, err := m.AddPinForce(f.Gate, f.Pin)
			if err != nil {
				return nil, err
			}
			lc.pinRef, lc.hasPin = ref, true
		default: // SA0/SA1/DelayX on a net
			lc.netRef, lc.hasNet = m.AddNetForce(f.Net), true
		}
		laneStart := 0
		if sn := g.snapshotAtOrBefore(inj.Cycle); sn != nil {
			laneStart = int(sn.Cycle())
		}
		lc.abortAt = -1
		if cb := t.Supervision.CycleBudget; cb > 0 {
			lc.abortAt = maxInt(laneStart, cb)
		}
	}

	// The batch resumes from the snapshot usable by its earliest
	// injection; later lanes deterministically replay the golden prefix
	// they would have skipped alone, which cannot change their results
	// (the faulty DUT is golden until the fault applies). Each lane gets
	// its own peripheral instances (behavioral models hold internal
	// state).
	snap := g.snapshotAtOrBefore(minCycle)
	start := 0
	if snap != nil {
		start = int(snap.Cycle())
	}
	for k := range lcs {
		if err := t.loadLane(d, k, snap); err != nil {
			return nil, err
		}
	}

	// Early retirement is behavior-preserving only when no watchdog can
	// fire mid-run: a lane whose outcome is already pinned still returns
	// Aborted when its budget expires, so with a live watchdog every lane
	// keeps simulating to reproduce that verdict.
	cb := t.Supervision.CycleBudget
	earlyExitSafe := (cb <= 0 || cb >= tr.Cycles()) && !t.Supervision.wallArmed()
	wallCheck := t.Supervision.wallChecker()

	full := d.live
	var abortedLanes, sensLanes, funcLanes, diagLanes, flipLanes, elig uint64
	for k := range lcs {
		if lcs[k].inj.Fault.Kind == faults.Flip {
			flipLanes |= lcs[k].bit
		}
	}
	seen := make([]uint64, len(a.Obs))
	firstDev := make([]int, lanes)
	for k := range firstDev {
		firstDev[k] = -1
	}
	devList := make([][]int, lanes)

	retire := func(k int) {
		lc := &lcs[k]
		d.live &^= lc.bit
		// Disarm the lane's fault so a retired lane cannot keep a bridge
		// fixpoint (or anything else) busy; its planes are never read
		// again.
		if lc.hasNet {
			m.ClearForce(lc.netRef, lc.bit)
		}
		if lc.hasPin {
			m.ClearForce(lc.pinRef, lc.bit)
		}
		if lc.hasBr {
			m.DisarmBridge(lc.brRef, lc.bit)
		}
	}

	var stepped int64
	for c := start; c < tr.Cycles() && d.live != 0; c++ {
		// Cooperative watchdogs, checked before the cycle is simulated.
		// The lanes run in lockstep, so a hang in one is a hang of the
		// batch: the wall-clock guard covers the batch and aborts every
		// lane still running.
		if wallCheck(c) {
			abortedLanes |= d.live
			break
		}
		for k := range lcs {
			lc := &lcs[k]
			if d.live&lc.bit != 0 && lc.abortAt >= 0 && c >= lc.abortAt {
				abortedLanes |= lc.bit
				retire(k)
			}
		}
		if d.live == 0 {
			break
		}
		d.eval(c)
		d.step()
		stepped++
		// Faults apply after the clock edge, per lane.
		dirty := false
		for k := range lcs {
			lc := &lcs[k]
			if d.live&lc.bit == 0 {
				continue
			}
			if c == lc.inj.Cycle {
				applyLaneFault(m, lc)
				dirty = true
			}
			if lc.inj.Duration > 0 && c == lc.inj.Cycle+lc.inj.Duration {
				removeLaneFault(m, lc)
				dirty = true
			}
		}
		if dirty {
			m.Eval()
		}
		// Monitors, for lanes whose injection cycle has been reached.
		if elig != full {
			for k := range lcs {
				if elig&lcs[k].bit == 0 && c >= lcs[k].inj.Cycle {
					elig |= lcs[k].bit
				}
			}
		}
		mon := elig & d.live
		if mon == 0 {
			continue
		}
		for k := range lcs {
			lc := &lcs[k]
			if mon&lc.bit == 0 || sensLanes&lc.bit != 0 {
				continue
			}
			if foldLane(m, k, lc.effNets) != lc.zoneTrace[c] {
				sensLanes |= lc.bit
			}
		}
		for oi := range a.Obs {
			gv, gx := g.obs[oi].val[c], g.obs[oi].x[c]
			var diff uint64
			for bit, id := range a.Obs[oi].Nets {
				nv, nx := m.NetPlanes(id)
				diff |= (nv ^ -(gv >> uint(bit) & 1)) | (nx ^ -(gx >> uint(bit) & 1))
			}
			diff &= mon
			if diff == 0 {
				continue
			}
			newly := diff &^ seen[oi]
			seen[oi] |= newly
			for w := newly; w != 0; w &= w - 1 {
				k := bits.TrailingZeros64(w)
				devList[k] = append(devList[k], oi)
			}
			for w := diff; w != 0; w &= w - 1 {
				k := bits.TrailingZeros64(w)
				if firstDev[k] < 0 {
					firstDev[k] = c
				}
			}
			if a.Obs[oi].Kind == zones.Diagnostic {
				diagLanes |= diff
			} else {
				funcLanes |= diff
			}
		}
		// Per-lane early retirement: a lane with every monitor pinned
		// cannot change its result row, so it stops consuming work while
		// its siblings run on.
		if earlyExitSafe {
			done := mon & funcLanes & diagLanes & (sensLanes | flipLanes)
			for w := done; w != 0; w &= w - 1 {
				k := bits.TrailingZeros64(w)
				if len(devList[k]) == len(a.Obs) {
					retire(k)
				}
			}
		}
	}
	t.Telemetry.AddSimCycles(stepped)

	results := make([]ExpResult, lanes)
	for k := range lcs {
		lc := &lcs[k]
		res := ExpResult{
			Injection:     lc.inj,
			Sens:          sensLanes&lc.bit != 0,
			Deviated:      devList[k],
			FirstDevCycle: firstDev[k],
		}
		if abortedLanes&lc.bit != 0 {
			// An aborted lane keeps the partial monitor fields (no outcome
			// switch, no flip override).
			res.Outcome = Aborted
		} else {
			fd, dd := funcLanes&lc.bit != 0, diagLanes&lc.bit != 0
			switch {
			case fd && dd:
				res.Outcome = DangerousDetected
			case fd:
				res.Outcome = DangerousUndetected
			case dd:
				res.Outcome = DetectedSafe
			default:
				res.Outcome = Silent
			}
			if lc.inj.Fault.Kind == faults.Flip {
				res.Sens = true
			}
		}
		results[k] = res
	}
	return results, nil
}

// applyLaneFault arms one lane's fault on the machine (the lane-masked
// equivalent of faults.Fault.Apply; the caller re-Evals).
func applyLaneFault(m *simc.Machine, lc *laneExp) {
	f := lc.inj.Fault
	switch f.Kind {
	case faults.SA0, faults.SA1:
		v := sim.V0
		if f.Kind == faults.SA1 {
			v = sim.V1
		}
		if lc.hasPin {
			m.SetForce(lc.pinRef, lc.bit, v)
		} else {
			m.SetForce(lc.netRef, lc.bit, v)
		}
	case faults.Flip:
		m.FlipFF(f.FF, lc.bit)
	case faults.BridgeAND, faults.BridgeOR:
		m.ArmBridge(lc.brRef, lc.bit)
	case faults.DelayX:
		m.SetForce(lc.netRef, lc.bit, sim.VX)
	}
}

// removeLaneFault disarms one lane's fault (faults.Fault.Remove; a Flip
// is not un-done).
func removeLaneFault(m *simc.Machine, lc *laneExp) {
	f := lc.inj.Fault
	switch f.Kind {
	case faults.SA0, faults.SA1, faults.DelayX:
		if lc.hasPin {
			m.ClearForce(lc.pinRef, lc.bit)
		} else {
			m.ClearForce(lc.netRef, lc.bit)
		}
	case faults.BridgeAND, faults.BridgeOR:
		m.DisarmBridge(lc.brRef, lc.bit)
	}
}

// foldLane hashes a net set's values on one machine lane (with X
// distinguished) into one word, mixing position so wide buses don't
// alias: the zone fold the golden run records and the SENS monitor
// compares against (foldNets is the same fold on the interpreter).
func foldLane(m *simc.Machine, lane int, nets []netlist.NetID) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset
	for _, id := range nets {
		h = (h ^ uint64(m.NetValue(lane, id))) * 1099511628211
	}
	return h
}
