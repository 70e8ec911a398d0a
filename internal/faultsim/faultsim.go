// Package faultsim is the gate-level fault simulator of the validation
// flow (Section 5c): a 64-way bit-parallel single-stuck-at simulator
// (PPSFP — parallel-pattern single-fault propagation across lanes). The
// toggle-coverage measurement that qualifies workload efficiency
// (Section 5b) is inject.Target.ToggleCoverage.
//
// Lane 0 always carries the golden circuit; lanes 1..63 each carry one
// faulty circuit, so one pass simulates 63 faults against the whole
// workload. Designs must be pure gate/FF logic (no behavioral
// peripherals) and workloads must be fully binary. The fault list is
// simulated as given; callers collapse it first (faults.StuckAtUniverse
// Reps).
//
// The evaluation kernel is the compiled bytecode program of
// internal/simc: the netlist is compiled once per engine and every pass
// runs a binary machine (simc.BinMachine) over the shared op stream,
// with the chunk's stuck-at masks spliced in as FORCE ops. The same
// program drives the three-valued campaign kernel, so the two
// simulators cannot diverge structurally.
package faultsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/simc"
	"repro/internal/workload"
)

const lanesPerPass = 63 // lane 0 is golden

// Engine simulates a netlist in 64 parallel lanes. It is immutable
// after New: per-pass lane state lives in a machine built per chunk.
type Engine struct {
	n    *netlist.Netlist
	prog *simc.Program
}

// New builds an engine. The design must validate and must not contain
// peripheral-driven (external) nets.
func New(n *netlist.Netlist) (*Engine, error) {
	if len(n.Externals) > 0 {
		return nil, fmt.Errorf("faultsim: design %q has %d peripheral port(s); fault simulation requires pure logic", n.Name, len(n.Externals))
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	prog, err := simc.Compile(n)
	if err != nil {
		return nil, err
	}
	return &Engine{n: n, prog: prog}, nil
}

// Detection records where a fault became visible.
type Detection struct {
	Func bool // differed from golden on a functional observation net
	Diag bool // differed from golden on a diagnostic (alarm) net
}

// Result summarizes a fault-simulation campaign.
type Result struct {
	PerFault []Detection
	Total    int
	AnyDet   int // detected at func or diag points
	FuncDet  int
	DiagDet  int
}

// Coverage is the classic fault coverage: fraction of faults observable
// at any observation point.
func (r Result) Coverage() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.AnyDet) / float64(r.Total)
}

// DiagOfDangerous returns the fraction of faults visible at functional
// outputs that the diagnostic points also caught — the fault-simulation
// counterpart of the detected-dangerous fraction.
func (r Result) DiagOfDangerous() float64 {
	dangerous, caught := 0, 0
	for _, d := range r.PerFault {
		if d.Func {
			dangerous++
			if d.Diag {
				caught++
			}
		}
	}
	if dangerous == 0 {
		return 1
	}
	return float64(caught) / float64(dangerous)
}

// Run simulates the fault list against the workload trace, observing
// funcObs (functional outputs) and diagObs (alarms), one 63-fault chunk
// per pass. Only stuck-at faults (net or pin site) are accepted.
func (e *Engine) Run(tr *workload.Trace, funcObs, diagObs []netlist.NetID, list []faults.Fault) (Result, error) {
	for _, f := range list {
		if f.Kind != faults.SA0 && f.Kind != faults.SA1 {
			return Result{}, fmt.Errorf("faultsim: unsupported fault kind %v (only stuck-at)", f.Kind)
		}
	}
	ports, err := tr.InputPorts(e.n)
	if err != nil {
		return Result{}, fmt.Errorf("faultsim: %w", err)
	}
	res := Result{PerFault: make([]Detection, len(list)), Total: len(list)}
	for base := 0; base < len(list); base += lanesPerPass {
		chunk := list[base:min(base+lanesPerPass, len(list))]
		funcMask, diagMask := e.runPass(tr, ports, funcObs, diagObs, chunk)
		for i := range chunk {
			lane := uint(i + 1)
			d := Detection{Func: funcMask>>lane&1 == 1, Diag: diagMask>>lane&1 == 1}
			res.PerFault[base+i] = d
			if d.Func {
				res.FuncDet++
			}
			if d.Diag {
				res.DiagDet++
			}
			if d.Func || d.Diag {
				res.AnyDet++
			}
		}
	}
	return res, nil
}

// runPass simulates golden + one chunk of faults through the full trace
// on a fresh binary machine, returning lane masks of func/diag
// detections. Each fault occupies its own lane, so the per-lane
// stuck-at masks of one force slot never overlap.
func (e *Engine) runPass(tr *workload.Trace, ports []netlist.Port, funcObs, diagObs []netlist.NetID, chunk []faults.Fault) (funcMask, diagMask uint64) {
	m := simc.NewBinMachine(e.prog)
	for i, f := range chunk {
		lane := uint64(1) << uint(i+1)
		var or, clr uint64
		if f.Kind == faults.SA1 {
			or = lane
		} else {
			clr = lane
		}
		switch f.Site {
		case faults.SiteNet:
			m.StuckAt(m.AddNetForce(f.Net), or, clr)
		case faults.SitePin:
			ref, err := m.AddPinForce(f.Gate, f.Pin)
			if err != nil {
				// A pin index the gate does not have cannot affect the
				// circuit; the lane simply stays golden (undetected).
				continue
			}
			m.StuckAt(ref, or, clr)
		default:
			panic("faultsim: unsupported fault site")
		}
	}
	m.ResetState()
	for cycle := 0; cycle < tr.Cycles(); cycle++ {
		vec := tr.Vecs[cycle]
		for pi := range ports {
			v := vec[pi]
			for bit, id := range ports[pi].Nets {
				var w uint64
				if v>>uint(bit)&1 == 1 {
					w = ^uint64(0)
				}
				m.DriveInput(id, w)
			}
		}
		m.Eval()
		for _, id := range funcObs {
			w := m.Val(id)
			funcMask |= w ^ broadcastLane0(w)
		}
		for _, id := range diagObs {
			w := m.Val(id)
			diagMask |= w ^ broadcastLane0(w)
		}
		m.Step()
	}
	return funcMask &^ 1, diagMask &^ 1
}

func broadcastLane0(w uint64) uint64 {
	return (w & 1) * ^uint64(0)
}
