package inject

import (
	"fmt"
	"sync"
)

// Prepared is one campaign made ready to run: everything that depends
// only on (target, golden, plan) and not on which rows are asked for.
// A process that runs many ranges of one plan — a fleet worker, the
// coordinator's local runner — prepares once and pays per lease only
// for the rows of the lease; Target.Run, RunParallel and RunRange
// prepare and make one call, so there is one engine path.
//
// A Prepared value holds a copy of the Target taken by Prepare: knobs
// changed on the Target afterwards do not reach it. It is safe for
// concurrent RunRange calls; golden and plan are read only.
type Prepared struct {
	Codec
	t Target
	g *Golden

	// pc is the whole-plan collapse table, built by the first range
	// that wants it (Target.Collapse on, no wall watchdog).
	collapseOnce sync.Once
	pc           *planCollapse
}

// Prepare fingerprints the plan. The lane kernel runs the program the
// golden run compiled, over the trace ports it resolved.
func (t *Target) Prepare(g *Golden, plan []Injection) *Prepared {
	return &Prepared{Codec: NewCodec(plan), t: *t, g: g}
}

// collapse returns the whole-plan collapse table, running the static
// pre-pass on first use.
func (p *Prepared) collapse() *planCollapse {
	p.collapseOnce.Do(func() {
		csp := p.t.Telemetry.StartSpan("collapse")
		p.pc = p.t.collapsePlan(p.g, p.plan)
		csp.End()
	})
	return p.pc
}

// Run executes the whole plan; see Target.RunParallel.
func (p *Prepared) Run(workers int) (*Report, error) {
	st, err := p.runSpan(workers, 0, len(p.plan))
	if err != nil {
		return nil, err
	}
	rep, ci := newReport(p.t.Analysis)
	for i := range st.slots {
		s := &st.slots[i]
		if s.quar {
			rep.Quarantined = append(rep.Quarantined, s.q)
		} else {
			rep.absorb(s.res, ci)
		}
	}
	p.t.Telemetry.Summary()
	return rep, nil
}

// RunRange executes the plan indices in [lo, hi); see Target.RunRange.
// Run state is sized to the range, not to the plan.
func (p *Prepared) RunRange(workers, lo, hi int) (*Checkpoint, error) {
	if lo < 0 || hi > len(p.plan) || lo > hi {
		return nil, fmt.Errorf("inject: range [%d,%d) outside plan of %d", lo, hi, len(p.plan))
	}
	st, err := p.runSpan(workers, lo, hi)
	if err != nil {
		return nil, err
	}
	p.t.Telemetry.Summary()
	return st.snapshot(), nil
}
