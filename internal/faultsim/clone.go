package faultsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/workload"
)

// Clone returns an engine over the same compiled program. All mutable
// per-pass state (lane planes, FF state, fault masks) lives in the
// per-chunk machine, so engines are already safe to share; Clone is
// kept for callers written against the earlier mutable engine and
// still guarantees the receiver and the clone may simulate
// concurrently.
func (e *Engine) Clone() *Engine {
	return &Engine{
		n:         e.n,
		prog:      e.prog,      // immutable, shared read-only
		Telemetry: e.Telemetry, // shared hub; counters are atomic
		Collapse:  e.Collapse,
	}
}

// RunParallel is Run with the 64-lane chunks sharded across workers
// engine clones. The fault list is cut into the same chunks as the
// serial path (base += 63 in list order) and each worker claims chunks
// from an atomic cursor, writing verdicts into disjoint regions of the
// per-fault array — the result is identical to Run for any worker
// count. workers <= 0 selects runtime.NumCPU().
func (e *Engine) RunParallel(tr *workload.Trace, funcObs, diagObs []netlist.NetID, list []faults.Fault, workers int) (Result, error) {
	for _, f := range list {
		if f.Kind != faults.SA0 && f.Kind != faults.SA1 {
			return Result{}, fmt.Errorf("faultsim: unsupported fault kind %v (only stuck-at)", f.Kind)
		}
	}
	res := Result{PerFault: make([]Detection, len(list)), Total: len(list)}
	var fc *faultCollapse
	if e.Collapse {
		fc = e.collapseList(funcObs, diagObs, list)
	}
	if fc == nil {
		if err := e.simulate(tr, funcObs, diagObs, list, res.PerFault, workers); err != nil {
			return Result{}, err
		}
	} else {
		// Pack the representatives into their own chunk sequence. Lanes
		// are bitwise-independent, so repacking cannot change a verdict;
		// statically pruned faults keep the zero Detection and collapsed
		// faults copy their representative's.
		var simIdx []int
		var sub []faults.Fault
		for i := range list {
			if !fc.static[i] && fc.dep[i] < 0 {
				simIdx = append(simIdx, i)
				sub = append(sub, list[i])
			}
		}
		per := make([]Detection, len(sub))
		if err := e.simulate(tr, funcObs, diagObs, sub, per, workers); err != nil {
			return Result{}, err
		}
		for k, i := range simIdx {
			res.PerFault[i] = per[k]
		}
		for i := range list {
			if fc.dep[i] >= 0 {
				res.PerFault[i] = res.PerFault[fc.dep[i]]
			}
		}
		e.Telemetry.CollapseFaults(fc.nStatic, fc.nDup)
	}
	for _, d := range res.PerFault {
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
	return res, nil
}

// simulate runs the fault list through the 64-lane chunk machinery,
// writing verdicts into per (len(per) == len(list)): the serial chunk
// walk or worker clones claiming chunks from an atomic cursor, with
// identical results for any worker count.
func (e *Engine) simulate(tr *workload.Trace, funcObs, diagObs []netlist.NetID, list []faults.Fault, per []Detection, workers int) error {
	nchunks := (len(list) + lanesPerPass - 1) / lanesPerPass
	if nchunks == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nchunks {
		workers = nchunks
	}
	ports, err := tr.InputPorts(e.n)
	if err != nil {
		return fmt.Errorf("faultsim: %w", err)
	}
	if workers <= 1 {
		for base := 0; base < len(list); base += lanesPerPass {
			hi := min(base+lanesPerPass, len(list))
			e.runChunk(tr, ports, funcObs, diagObs, list[base:hi], per[base:hi])
		}
		return nil
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		eng := e
		if w > 0 {
			eng = e.Clone()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				base := ci * lanesPerPass
				hi := min(base+lanesPerPass, len(list))
				eng.runChunk(tr, ports, funcObs, diagObs, list[base:hi], per[base:hi])
			}
		}()
	}
	wg.Wait()
	return nil
}
