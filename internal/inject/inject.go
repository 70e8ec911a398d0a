// Package inject implements the paper's Fig. 4 fault-injection
// environment used to validate the FMEA (Section 5):
//
//   - Environment builder — derives the injection environment (zone
//     failure modes, observation and diagnostic points, monitors) from
//     the zone analysis;
//   - Operational profiler — traces fault-free per-zone activity under
//     the workload so only non-trivial faults are generated;
//   - Collapser and randomizer — deterministic fault-list generation;
//   - Fault-injection manager — runs golden vs faulty simulations;
//   - Monitors and coverage collection — SENS / OBSE / DIAG items;
//   - Result analyzer — measured S, D and DDF per zone, effects tables,
//     and the cross-check against the FMEA worksheet.
package inject

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/zones"
)

// Target is the device under test: the analyzed netlist and a factory
// producing fresh simulator instances (with behavioral peripherals
// attached and any start-up sequence already run).
type Target struct {
	Analysis *zones.Analysis
	// NewInstance returns a ready simulator; called once for the golden
	// run and once per injection (the campaign takes the instance's
	// peripherals and start-up state for the experiment's lane). When
	// Workers != 0 it is called from several goroutines concurrently, so
	// the factory must not share mutable state between instances.
	NewInstance func() (*sim.Simulator, error)
	// Workers shards Run across this many goroutines (0 = serial,
	// negative = runtime.NumCPU()); the merged report is bit-identical
	// to the serial one for any value. See RunParallel.
	Workers int
	// Supervision is the fault-tolerance policy of campaign execution:
	// watchdog budgets, retry/quarantine and checkpoint/resume. The
	// zero value keeps the historical fail-fast behavior.
	Supervision Supervision
	// Telemetry is the campaign observability hub (metrics, journal,
	// progress) — nil disables the layer at the cost of one pointer
	// check per hook. Telemetry is strictly out-of-band: the campaign
	// report is byte-identical with it on or off (see the neutrality
	// matrix test).
	Telemetry *telemetry.Campaign
	// Lanes is the batch width of the campaign engine: up to Lanes
	// experiments restore from the same golden snapshot and run in
	// lockstep on the compiled kernel (internal/simc), one per bit-lane
	// of a machine word, with per-lane fault masks and per-lane monitor
	// retirement. <= 0 or > 64 means 64; 1 is one experiment per batch.
	// The report is bit-identical for any (Workers x Lanes) combination
	// (see the neutrality matrix test).
	Lanes int
	// Collapse enables the static fault-analysis pre-pass
	// (internal/statfault) before simulation: rows whose verdict is
	// statically provable (unobservable cones, untestable constants,
	// golden-quiescent forces) are classified without simulating, and
	// campaign-exact equivalent rows are simulated once with the
	// outcome copied onto every class member during the in-order
	// merge. Like Workers and Lanes this is a pure throughput knob:
	// the report stays byte-identical to the uncollapsed run (see the
	// neutrality matrix test). Automatically disabled while a
	// wall-clock watchdog is armed.
	Collapse bool
	// SnapshotEvery is the golden-state snapshot cadence in cycles
	// (0 = no snapshots, every faulty run starts cold at cycle 0).
	// When set, RunGolden captures the simulator state every
	// SnapshotEvery cycles and each lane batch warm-starts from the
	// snapshot at-or-before its earliest injection cycle. The faulty DUT
	// is bit-identical to the golden one until the fault applies, so the
	// report stays byte-identical to a cold start (see the neutrality
	// matrix test).
	SnapshotEvery int
}

// obsTrace is the recorded (value, xmask) stream of one observation
// point.
type obsTrace struct {
	val []uint64
	x   []uint64
}

// Golden is the fault-free reference run: observation-point traces and
// the operational profile.
type Golden struct {
	Trace *workload.Trace
	a     *zones.Analysis
	// obs[i] follows Analysis.Obs[i].
	obs []obsTrace
	// zoneVals[z][c] is a fold of zone z's output nets at cycle c.
	zoneVals [][]uint64
	// Activity[z] lists cycles where zone z's outputs changed — the
	// operational profile ("traced read/write activity").
	Activity [][]int
	// snaps are golden-state snapshots in ascending cycle order
	// (captured at Target.SnapshotEvery cadence); shared read-only
	// across worker goroutines, loaded into kernel lanes (and restored
	// by the reference runner via Simulator.Restore).
	snaps []*sim.Snapshot
	// prog is the compiled kernel program and ports the trace's input
	// ports resolved against it; every replay of the trace shares them.
	prog  *simc.Program
	ports []netlist.Port
}

// snapshotAtOrBefore returns the latest golden snapshot whose resume
// cycle is at or before the given cycle, or nil if none qualifies (the
// run then starts cold). Equality is allowed: a snapshot at cycle c
// restores the state *entering* iteration c, before the fault of an
// injection at cycle c is applied.
func (g *Golden) snapshotAtOrBefore(cycle int) *sim.Snapshot {
	var best *sim.Snapshot
	for _, sn := range g.snaps {
		if sn.Cycle() > int64(cycle) {
			break
		}
		best = sn
	}
	return best
}

// RunGolden performs the fault-free reference simulation on one lane of
// the compiled kernel, recording observation traces and the operational
// profile. The compiled program and the resolved trace ports stay with
// the golden for every campaign prepared on it.
func (t *Target) RunGolden(tr *workload.Trace) (*Golden, error) {
	gsp := t.Telemetry.StartSpanInt("golden-run", "cycles", int64(tr.Cycles()))
	prog, d, err := t.compiledLane(tr)
	if err != nil {
		gsp.EndOutcome("error")
		return nil, err
	}
	a := t.Analysis
	g := &Golden{
		Trace:    tr,
		a:        a,
		obs:      make([]obsTrace, len(a.Obs)),
		zoneVals: make([][]uint64, len(a.Zones)),
		Activity: make([][]int, len(a.Zones)),
		prog:     prog,
		ports:    d.ports,
	}
	for zi := range a.Zones {
		g.zoneVals[zi] = make([]uint64, tr.Cycles())
	}
	// The golden run is one long serial simulation — often the largest
	// indivisible chunk of a campaign — so it polls the cancellation
	// channel at the same 256-cycle cadence as the wall watchdog.
	interrupted := t.Supervision.interrupted()
	for c := 0; c < tr.Cycles(); c++ {
		if c&0xff == 0 && interrupted() {
			gsp.EndOutcome("interrupted")
			return nil, ErrCampaignInterrupted
		}
		d.eval(c)
		d.step()
		for oi := range a.Obs {
			var v, x uint64
			for bit, id := range a.Obs[oi].Nets {
				nv, nx := d.m.NetPlanes(id)
				v |= (nv & 1) << uint(bit)
				x |= (nx & 1) << uint(bit)
			}
			g.obs[oi].val = append(g.obs[oi].val, v)
			g.obs[oi].x = append(g.obs[oi].x, x)
		}
		for zi := range a.Zones {
			g.zoneVals[zi][c] = foldLane(d.m, 0, a.EffectNets(zi))
		}
		// Captured after the edge: the snapshot's cycle is c+1, exactly
		// the state entering iteration c+1 of a faulty run. A snapshot at
		// the final cycle could never be used, so it is skipped.
		if t.SnapshotEvery > 0 && (c+1)%t.SnapshotEvery == 0 && c+1 < tr.Cycles() {
			g.snaps = append(g.snaps, d.snapshot(c+1))
		}
	}
	for zi := range a.Zones {
		prev := uint64(0)
		for c, v := range g.zoneVals[zi] {
			if c == 0 || v != prev {
				g.Activity[zi] = append(g.Activity[zi], c)
			}
			prev = v
		}
	}
	t.Telemetry.AddSimCycles(int64(tr.Cycles()))
	gsp.End()
	return g, nil
}

// foldNets hashes a net set's values (with X distinguished) into one
// word, mixing position so wide buses don't alias.
func foldNets(s *sim.Simulator, nets []netlist.NetID) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset
	for _, id := range nets {
		h = (h ^ uint64(s.Net(id))) * 1099511628211
	}
	return h
}

// CompletenessOK reports whether the workload triggered every sensible
// zone at least twice (initial value + one change) — the deterministic
// workload-completeness check of Section 4. Zones whose effects reach
// only diagnostic observation points (alarm registers, error logs and
// the alarm output ports themselves) are exempt: by construction they
// stay quiet in a fault-free run.
func (g *Golden) CompletenessOK() (ok bool, inactive []int) {
	for zi, act := range g.Activity {
		if g.pureDiagnostic(zi) {
			continue
		}
		if len(act) < 2 {
			inactive = append(inactive, zi)
		}
	}
	return len(inactive) == 0, inactive
}

// pureDiagnostic reports whether every effect of the zone lands on a
// diagnostic observation point.
func (g *Golden) pureDiagnostic(zi int) bool {
	effects := append([]int{}, g.a.MainEffects(zi)...)
	effects = append(effects, g.a.SecondaryEffects(zi)...)
	if len(effects) == 0 {
		return true // unobservable zone; nothing a workload could show
	}
	for _, oi := range effects {
		if g.a.Obs[oi].Kind != zones.Diagnostic {
			return false
		}
	}
	return true
}

// ExpClass distinguishes the three experiment families of Section 5.
type ExpClass uint8

// ZoneFailure experiments inject the zone's failure modes at its
// boundary (Section 5a — these validate the Fig. 1–3 effect model).
// ConeFault experiments inject physical faults inside a fan-in cone
// (Section 5c selective injection). WideFault experiments target gates
// shared between cones (Section 5d).
const (
	ZoneFailure ExpClass = iota
	ConeFault
	WideFault
)

// Injection is one planned experiment: a fault applied to a zone at a
// chosen cycle, optionally released after Duration cycles (0 = stays
// until the end — a permanent fault).
type Injection struct {
	Zone     int
	Fault    faults.Fault
	Cycle    int
	Duration int
	Class    ExpClass
	// Mode labels the zone failure mode this experiment exercises.
	Mode string
}

// Describe renders the injection.
func (in Injection) Describe(a *zones.Analysis) string {
	return fmt.Sprintf("zone %q %s at cycle %d (dur %d)",
		a.Zones[in.Zone].Name, in.Fault.Describe(a.N), in.Cycle, in.Duration)
}
