package inject

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/workload"
)

// cycleDriver is the one per-cycle protocol of the campaign: the
// trace's input vector driven onto every lane of a compiled machine,
// Eval, then the clock edge, with each live lane's behavioral
// peripherals sampling the settled pre-edge values and committing
// through lane-local accessors. Lane batches (runBatch) run on it, and
// so do the three fault-free replays — RunGolden, traceQuiescence and
// ToggleCoverage — on one lane loaded from a fresh instance.
type cycleDriver struct {
	m     *simc.Machine
	tr    *workload.Trace
	ports []netlist.Port
	lanes []laneIO
	// live masks the lanes still running; a retired lane's peripherals
	// no longer tick.
	live uint64
}

// laneIO is one lane's peripherals and the accessors they sample and
// commit through.
type laneIO struct {
	periphs []sim.Peripheral
	get     func(netlist.NetID) sim.Value
	set     func(netlist.NetID, sim.Value)
}

// loadLane makes lane k of the driver a fresh instance resumed at snap:
// the lane takes the instance's peripherals, restored to the snapshot's
// states, and the snapshot's flip-flop and external values. A nil snap
// is a cold start, exactly where the fresh instance begins.
func (t *Target) loadLane(d *cycleDriver, k int, snap *sim.Snapshot) error {
	s, err := t.NewInstance()
	if err != nil {
		return err
	}
	ps := s.Peripherals()
	if snap == nil {
		snap = s.Snapshot()
	} else {
		st := snap.PeripheralStates()
		if len(st) != len(ps) {
			return fmt.Errorf("inject: snapshot has %d peripheral state(s), instance has %d", len(st), len(ps))
		}
		for j, p := range ps {
			p.RestoreState(st[j])
		}
	}
	d.m.LoadLane(k, snap.FFValues(), snap.ExtValues())
	d.lanes[k] = laneIO{
		periphs: ps,
		get:     func(id netlist.NetID) sim.Value { return d.m.NetValue(k, id) },
		set:     func(id netlist.NetID, v sim.Value) { d.m.SetExt(k, id, v) },
	}
	d.live |= uint64(1) << uint(k)
	return nil
}

// compiledLane compiles the netlist for the kernel, resolves the trace
// ports and returns a cold one-lane driver over the trace: where
// RunGolden and ToggleCoverage start.
func (t *Target) compiledLane(tr *workload.Trace) (*simc.Program, *cycleDriver, error) {
	prog, err := simc.Compile(t.Analysis.N)
	if err != nil {
		return nil, nil, err
	}
	ports, err := tr.InputPorts(t.Analysis.N)
	if err != nil {
		return nil, nil, fmt.Errorf("inject: %w", err)
	}
	d, err := t.coldLane(prog, tr, ports)
	return prog, d, err
}

// coldLane is a one-lane driver over the trace, loaded from a fresh
// instance's start-up state and peripherals.
func (t *Target) coldLane(prog *simc.Program, tr *workload.Trace, ports []netlist.Port) (*cycleDriver, error) {
	d := &cycleDriver{m: simc.NewMachine(prog), tr: tr, ports: ports, lanes: make([]laneIO, 1)}
	return d, t.loadLane(d, 0, nil)
}

// eval drives cycle c's input vector onto every lane and settles the
// network.
func (d *cycleDriver) eval(c int) {
	vec := d.tr.Vecs[c]
	for pi := range d.ports {
		for bit, id := range d.ports[pi].Nets {
			d.m.DriveInput(id, sim.FromBool(vec[pi]>>uint(bit)&1 == 1))
		}
	}
	d.m.Eval()
}

// step applies the clock edge: every live lane's peripherals sample,
// then commit, while the pre-edge values are still settled.
func (d *cycleDriver) step() {
	d.m.Step(func() {
		for k := range d.lanes {
			if d.live>>uint(k)&1 == 1 {
				for _, p := range d.lanes[k].periphs {
					p.Sample(d.lanes[k].get)
				}
			}
		}
		for k := range d.lanes {
			if d.live>>uint(k)&1 == 1 {
				for _, p := range d.lanes[k].periphs {
					p.Commit(d.lanes[k].set)
				}
			}
		}
	})
}

// snapshot captures lane 0 entering the given trace cycle — the inverse
// of loadLane.
func (d *cycleDriver) snapshot(cycle int) *sim.Snapshot {
	ffs, ext := d.m.StoreLane(0)
	return sim.NewSnapshot(int64(cycle), ffs, ext, d.lanes[0].periphs)
}
