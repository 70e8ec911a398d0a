package inject

import (
	"io"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ToggleReport is the workload-efficiency measure of the validation flow
// (Section 5b): which nets the workload exercised at both logic levels.
type ToggleReport struct {
	// Covered nets saw both 0 and 1 during the workload.
	Covered int
	// Eligible excludes constant and undriven nets, which can never
	// toggle.
	Eligible int
	// Untoggled lists eligible nets that never saw both levels.
	Untoggled []netlist.NetID
}

// Coverage returns covered/eligible in [0,1]; 1 for empty designs.
func (r ToggleReport) Coverage() float64 {
	if r.Eligible == 0 {
		return 1
	}
	return float64(r.Covered) / float64(r.Eligible)
}

// ToggleCoverage measures the workload-efficiency metric of Section 5b
// on the full DUT, behavioral peripherals included: the fraction of
// nets the workload drove to both logic levels, settled after start-up
// and after every clock edge of a fault-free replay on one kernel lane.
// An unknown trace port is an error: skipping it would measure a
// partially driven design.
func (t *Target) ToggleCoverage(tr *workload.Trace) (ToggleReport, error) {
	_, d, err := t.compiledLane(tr)
	if err != nil {
		return ToggleReport{}, err
	}
	n := t.Analysis.N
	seen0 := make([]bool, len(n.Nets))
	seen1 := make([]bool, len(n.Nets))
	record := func() {
		for id := range n.Nets {
			switch d.m.NetValue(0, netlist.NetID(id)) {
			case sim.V0:
				seen0[id] = true
			case sim.V1:
				seen1[id] = true
			}
		}
	}
	d.m.Eval()
	record()
	for c := 0; c < tr.Cycles(); c++ {
		d.eval(c)
		d.step()
		record()
	}
	rep := ToggleReport{}
	for id := range n.Nets {
		nid := netlist.NetID(id)
		if _, isConst := n.IsConst(nid); isConst {
			continue
		}
		if !n.IsDriven(nid) {
			continue // orphaned by pruning; no silicon behind it
		}
		rep.Eligible++
		if seen0[id] && seen1[id] {
			rep.Covered++
		} else {
			rep.Untoggled = append(rep.Untoggled, nid)
		}
	}
	return rep, nil
}

// RecordVCD replays the workload (golden when inj is nil, faulty
// otherwise) and streams a waveform of all ports and register outputs —
// the debugging view of what an injected fault actually did.
func (t *Target) RecordVCD(g *Golden, inj *Injection, w io.Writer) error {
	s, err := t.NewInstance()
	if err != nil {
		return err
	}
	rec := sim.NewVCDRecorder(s, w, nil)
	tr := g.Trace
	for c := 0; c < tr.Cycles(); c++ {
		tr.ApplyTo(s, c)
		s.Eval()
		s.Step()
		if inj != nil {
			if c == inj.Cycle {
				inj.Fault.Apply(s)
			}
			if inj.Duration > 0 && c == inj.Cycle+inj.Duration {
				inj.Fault.Remove(s)
			}
		}
		rec.Sample()
	}
	return rec.Close()
}

// AdjustedToggle recomputes the toggle coverage with diagnostic-only
// logic excluded from the eligible set: redundancy comparators and alarm
// conditioning cannot change in a fault-free run by construction (their
// coverage is credited by fault injection instead, Section 5c). It
// returns the adjusted coverage and the number of excluded nets.
func (t *Target) AdjustedToggle(rep ToggleReport) (float64, int) {
	reach := t.Analysis.FunctionalReachNets()
	excluded := 0
	for _, id := range rep.Untoggled {
		if !reach[id] {
			excluded++
		}
	}
	eligible := rep.Eligible - excluded
	if eligible <= 0 {
		return 1, excluded
	}
	return float64(rep.Covered) / float64(eligible), excluded
}
