package inject

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/zones"
)

// covIndex maps observation-point indices onto the coverage item arrays
// (functional OBSE items vs diagnostic DIAG items). It is derived once
// per campaign and shared read-only by the merge path. funcSlot and
// diagSlot are the inverse maps — observation-point index to its slot
// in ObseSeen/DiagSeen, -1 when the point is of the other kind — so
// absorbing a deviation is O(1) instead of a scan over every item.
type covIndex struct {
	funcIdx  []int
	diagIdx  []int
	funcSlot []int
	diagSlot []int
}

// newReport allocates an empty campaign report with the coverage item
// arrays sized for the analysis, plus the observation-point index used
// to merge experiment results into it.
func newReport(a *zones.Analysis) (*Report, covIndex) {
	rep := &Report{}
	rep.Coverage.SensZones = make([]bool, len(a.Zones))
	ci := covIndex{
		funcSlot: make([]int, len(a.Obs)),
		diagSlot: make([]int, len(a.Obs)),
	}
	for oi := range a.Obs {
		ci.funcSlot[oi], ci.diagSlot[oi] = -1, -1
		if a.Obs[oi].Kind == zones.Diagnostic {
			ci.diagSlot[oi] = len(ci.diagIdx)
			ci.diagIdx = append(ci.diagIdx, oi)
		} else {
			ci.funcSlot[oi] = len(ci.funcIdx)
			ci.funcIdx = append(ci.funcIdx, oi)
		}
	}
	rep.Coverage.ObseSeen = make([]bool, len(ci.funcIdx))
	rep.Coverage.DiagSeen = make([]bool, len(ci.diagIdx))
	return rep, ci
}

// absorb folds one experiment result into the report: the result list
// and the SENS/OBSE/DIAG coverage items. Results must be absorbed in
// plan order — the runner guarantees that regardless of worker count,
// which is what makes the parallel report bit-identical to the serial
// one.
func (rep *Report) absorb(res ExpResult, ci covIndex) {
	rep.Results = append(rep.Results, res)
	if res.Sens {
		rep.Coverage.SensZones[res.Zone] = true
	}
	for _, oi := range res.Deviated {
		rep.Coverage.Mismatches++
		if s := ci.funcSlot[oi]; s >= 0 {
			rep.Coverage.ObseSeen[s] = true
		}
		if s := ci.diagSlot[oi]; s >= 0 {
			rep.Coverage.DiagSeen[s] = true
		}
	}
}

// expSlot is the completion cell of one plan index.
type expSlot struct {
	done bool
	quar bool
	res  ExpResult
	q    Quarantined
}

// campaignState tracks completion, quarantine and checkpoint cadence of
// one span of the plan under one mutex; simulation dominates the cost
// by orders of magnitude, so the lock never contends meaningfully.
type campaignState struct {
	mu        sync.Mutex
	lo        int       // plan index of slots[0]
	slots     []expSlot // one per plan index of the span
	completed int       // completions in this process (drives cadence + StopAfter)
	sinceCkpt int
}

// at returns the cell of plan index i, which must lie in the span.
func (st *campaignState) at(i int) *expSlot { return &st.slots[i-st.lo] }

// snapshot renders the completed state of the span as a Checkpoint, in
// canonical plan-index order.
func (st *campaignState) snapshot() *Checkpoint {
	ck := &Checkpoint{}
	for k := range st.slots {
		s := &st.slots[k]
		if !s.done {
			continue
		}
		if s.quar {
			ck.Quarantined = append(ck.Quarantined, s.q)
		} else {
			ck.Results = append(ck.Results, IndexedResult{PlanIndex: st.lo + k, Result: s.res})
		}
	}
	return ck
}

// RunParallel executes the injection campaign sharded across workers
// goroutines under the Target's Supervision policy. Each worker claims
// lane batches from a shared atomic cursor (dynamic load balancing —
// wide permanent faults simulate the whole trace while late transients
// are cheap), runs each one on a fresh machine with peripherals from
// t.NewInstance, and reads the shared golden traces strictly
// read-only. Results land in per-index slots and are merged in plan
// order, so the report is bit-identical for any worker count and batch
// width — including a run resumed from a checkpoint at any kill point.
//
// workers <= 0 selects runtime.NumCPU(); workers == 1 runs inline with
// no goroutines. On failure without quarantine the *ExperimentError of
// the lowest-index failing experiment is returned at any worker count:
// batches are claimed in ascending order of their lowest plan index,
// every member of a failed batch is run again alone, and claiming only
// stops at batches that lie wholly above the lowest failure so far.
func (t *Target) RunParallel(g *Golden, plan []Injection, workers int) (*Report, error) {
	return t.Prepare(g, plan).Run(workers)
}

// RunRange executes only the plan indices in [lo, hi) and returns the
// completed partial campaign state as a Checkpoint — the interchange
// unit of the distributed coordinator/worker protocol (internal/dist).
// Every verdict in the returned state is exactly the one the full
// campaign would have produced for that plan row, so disjoint ranges
// merged in plan order (see AssembleReport) rebuild the bit-identical
// single-process report. Batch width, warm start, collapse and the
// per-experiment supervision policy all compose: they are per-process
// throughput/robustness knobs that never change a result row. A caller
// with more than one range to run prepares once and calls
// Prepared.RunRange.
func (t *Target) RunRange(g *Golden, plan []Injection, workers, lo, hi int) (*Checkpoint, error) {
	return t.Prepare(g, plan).RunRange(workers, lo, hi)
}

// AssembleReport merges complete per-index campaign state — typically
// the union of RunRange checkpoints covering the whole plan — into the
// final report, using exactly the in-order merge of RunParallel, so
// the assembled report is byte-identical to a single-process run.
// Every plan index must be covered exactly once, and every record's
// injection must match the plan's; any deviation is an error, never a
// silently wrong report.
func (t *Target) AssembleReport(plan []Injection, ck *Checkpoint) (*Report, error) {
	slots := make([]expSlot, len(plan))
	place := func(i int, s expSlot, inj Injection) error {
		if i < 0 || i >= len(plan) {
			return fmt.Errorf("inject: assemble: plan index %d out of range", i)
		}
		if slots[i].done {
			return fmt.Errorf("inject: assemble: plan index %d covered twice", i)
		}
		if inj != plan[i] {
			return fmt.Errorf("inject: assemble: record %d injection differs from the plan", i)
		}
		slots[i] = s
		return nil
	}
	for _, ir := range ck.Results {
		if err := place(ir.PlanIndex, expSlot{done: true, res: ir.Result}, ir.Result.Injection); err != nil {
			return nil, err
		}
	}
	for _, q := range ck.Quarantined {
		if err := place(q.PlanIndex, expSlot{done: true, quar: true, q: q}, q.Injection); err != nil {
			return nil, err
		}
	}
	for i := range slots {
		if !slots[i].done {
			return nil, fmt.Errorf("inject: assemble: plan index %d has no result", i)
		}
	}
	rep, ci := newReport(t.Analysis)
	for i := range slots {
		s := &slots[i]
		if s.quar {
			rep.Quarantined = append(rep.Quarantined, s.q)
		} else {
			rep.absorb(s.res, ci)
		}
	}
	return rep, nil
}

// runSpan is the campaign execution engine behind Run (full span) and
// RunRange (a leased sub-range): it completes every pending plan index
// in [lo, hi) and leaves the verdicts in the returned span-sized slots.
// Everything it knows about the campaign comes from p; what it allocates
// is proportional to hi-lo.
func (p *Prepared) runSpan(workers, lo, hi int) (*campaignState, error) {
	t, plan := &p.t, p.plan
	span := hi - lo
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > span {
		workers = maxInt(1, span)
	}
	sup := t.Supervision
	if sup.Checkpoint != "" && sup.CheckpointEvery <= 0 {
		sup.CheckpointEvery = defaultCheckpointEvery
	}
	tel := t.Telemetry
	if tel != nil {
		tel.PlanBuilt(span, workers, p.hash)
	}

	st := &campaignState{lo: lo, slots: make([]expSlot, span)}
	if sup.Resume && sup.Checkpoint != "" {
		nres, nquar, err := st.preload(p.Codec, sup.Checkpoint)
		if err != nil {
			return nil, err
		}
		if nres+nquar > 0 {
			tel.CheckpointLoad(nres, nquar)
		}
	}

	// Static pre-pass (opt-in): statically classified rows are marked
	// done up front with their exact result; rows collapsed onto
	// a representative are skipped by the claim loop and inherit the
	// representative's outcome after the workers drain, just before the
	// in-order merge. A wall-clock watchdog makes verdicts depend on
	// host timing, so it disables the pre-pass.
	//
	// from is the table seen from this span: from[i-lo] >= 0 names the
	// in-span row whose outcome pending row i inherits. When a class's
	// representative lies below lo — every lease boundary that cuts a
	// class — its first pending member in the span stands in: it is
	// simulated and the later members inherit from it.
	var pc *planCollapse
	if t.Collapse && span > 0 && !sup.wallArmed() {
		pc = p.collapse()
	}
	var from []int
	if pc != nil {
		from = make([]int, span)
		var standIn map[int]int // representative below lo -> its stand-in
		pruned, collapsed := 0, 0
		for i := lo; i < hi; i++ {
			from[i-lo] = -1
			r := pc.dep[i]
			switch {
			case st.at(i).done: // preloaded
			case pc.static[i]:
				*st.at(i) = expSlot{done: true, res: staticSilent(plan[i])}
				pruned++
			case r >= lo:
				from[i-lo] = r
				collapsed++
			case r >= 0:
				collapsed++
				if first, ok := standIn[r]; ok {
					from[i-lo] = first
				} else {
					if standIn == nil {
						standIn = map[int]int{}
					}
					standIn[r] = i
				}
			}
		}
		tel.CollapsePlan(pruned, collapsed)
	}

	// The pending experiments are grouped into lockstep lane batches on
	// the compiled machine (see lanes.go).
	units := buildUnits(st, plan, laneWidth(t.Lanes), from)

	var (
		cursor      atomic.Int64
		stopped     atomic.Bool
		failedAt    atomic.Int64 // lowest failed plan index (quarantine off)
		errs        = make([]error, span)
		ckptErr     error
		interrupted = sup.interrupted()
	)
	failedAt.Store(int64(hi))
	// finish is called with st.mu held after every completion; it
	// writes the periodic checkpoint and fires the StopAfter hook.
	finish := func() {
		st.completed++
		st.sinceCkpt++
		stopping := sup.StopAfter > 0 && st.completed >= sup.StopAfter
		if sup.Checkpoint != "" && (st.sinceCkpt >= sup.CheckpointEvery || stopping) {
			csp := tel.StartSpanInt("checkpoint", "completed", int64(st.completed))
			if err := p.write(sup.Checkpoint, st.snapshot()); err != nil {
				if ckptErr == nil {
					ckptErr = err
					stopping = true
				}
				csp.EndOutcome("error")
			} else {
				tel.CheckpointWrite(st.completed)
				csp.End()
			}
			st.sinceCkpt = 0
		}
		if stopping {
			stopped.Store(true)
		}
	}
	// runAlone executes one claimed experiment alone under the full
	// supervision policy and records its completion; tk is its ExpStart
	// ticket (already emitted by the claimer).
	runAlone := func(i int, tk telemetry.ExpTicket) {
		res, err := p.runSupervised(i)
		st.mu.Lock()
		if err != nil {
			if sup.Quarantine {
				ee := err.(*ExperimentError)
				*st.at(i) = expSlot{done: true, quar: true, q: Quarantined{
					PlanIndex: i, Injection: plan[i], Attempts: ee.Attempts, Err: ee.Err.Error(),
				}}
				tel.Quarantine(i, ee.Attempts, ee.Err.Error())
				finish()
			} else {
				errs[i-lo] = err
				if int64(i) < failedAt.Load() {
					failedAt.Store(int64(i))
				}
				tel.ExpFinish(i, "error", false, 0, -1, tk)
			}
		} else {
			*st.at(i) = expSlot{done: true, res: res}
			tel.ExpFinish(i, res.Outcome.String(), res.Sens, len(res.Deviated), res.FirstDevCycle, tk)
			finish()
		}
		st.mu.Unlock()
	}
	// work claims whole units. A batch that fails for any reason (error
	// or panic) produces no results; every member is then run alone, so
	// the retry/quarantine policy applies per experiment. A unit of one
	// row goes there directly.
	work := func() {
		for {
			u := int(cursor.Add(1)) - 1
			if u >= len(units) || stopped.Load() || interrupted() ||
				int64(minIndex(units[u])) > failedAt.Load() {
				return
			}
			idxs := units[u]
			starts := make([]telemetry.ExpTicket, len(idxs))
			for k, i := range idxs {
				starts[k] = tel.ExpStart(i)
			}
			if len(idxs) > 1 {
				if results, err := p.runBatchRecovered(idxs); err == nil {
					st.mu.Lock()
					for k, i := range idxs {
						*st.at(i) = expSlot{done: true, res: results[k]}
						r := &results[k]
						tel.ExpFinish(i, r.Outcome.String(), r.Sens, len(r.Deviated), r.FirstDevCycle, starts[k])
						finish()
					}
					st.mu.Unlock()
					continue
				}
			}
			for k, i := range idxs {
				runAlone(i, starts[k])
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ckptErr != nil {
		return nil, ckptErr
	}
	if sup.StopAfter > 0 && st.completed >= sup.StopAfter {
		return nil, ErrCampaignStopped
	}
	// Expansion: collapsed rows inherit their representative's outcome
	// fields under their own injection header — in plan order, before
	// the final checkpoint and the merge. A row whose representative
	// carries no result (quarantined) is simulated itself, exactly as
	// the uncollapsed campaign would have done.
	if from != nil {
		for i := lo; i < hi; i++ {
			if stopped.Load() || interrupted() || int64(i) > failedAt.Load() {
				break
			}
			r := from[i-lo]
			if r < 0 || st.at(i).done {
				continue
			}
			rs := st.at(r)
			if rs.done && !rs.quar {
				res := rs.res
				res.Injection = plan[i]
				if rs.res.Deviated != nil {
					res.Deviated = append([]int(nil), rs.res.Deviated...)
				}
				*st.at(i) = expSlot{done: true, res: res}
				tel.OutcomeInherited()
			} else {
				runAlone(i, tel.ExpStart(i))
			}
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if ckptErr != nil {
			return nil, ckptErr
		}
		if sup.StopAfter > 0 && st.completed >= sup.StopAfter {
			return nil, ErrCampaignStopped
		}
	}
	// An interrupt only matters if it left work undone — when it lands
	// after the last verdict the completed campaign is returned as
	// usual, so a cancel racing the natural finish stays benign.
	if interrupted() {
		for k := range st.slots {
			if !st.slots[k].done {
				return nil, ErrCampaignInterrupted
			}
		}
	}
	if sup.Checkpoint != "" && st.sinceCkpt > 0 {
		if err := p.write(sup.Checkpoint, st.snapshot()); err != nil {
			return nil, err
		}
		tel.CheckpointWrite(st.completed)
	}
	return st, nil
}

// preload fills completion slots from a checkpoint file, reporting how
// many result and quarantine records it restored. The whole file is
// validated against the plan; records outside the span are then left
// alone. A missing file is a fresh start, not an error; an unreadable
// or mismatched one aborts before any simulation is spent.
func (st *campaignState) preload(c Codec, path string) (results, quarantined int, err error) {
	ck, err := c.load(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("inject: resume: %w", err)
	}
	inSpan := func(i int) bool { return i >= st.lo && i < st.lo+len(st.slots) }
	for _, ir := range ck.Results {
		if inSpan(ir.PlanIndex) {
			*st.at(ir.PlanIndex) = expSlot{done: true, res: ir.Result}
			results++
		}
	}
	for _, q := range ck.Quarantined {
		if inSpan(q.PlanIndex) {
			*st.at(q.PlanIndex) = expSlot{done: true, quar: true, q: q}
			quarantined++
		}
	}
	return results, quarantined, nil
}
