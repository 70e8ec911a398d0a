package inject

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/zones"
)

// Outcome classifies one injection experiment against the golden run.
type Outcome uint8

// Outcomes. Silent faults never reach an observation point (masked —
// not a hazard per Section 3). DetectedSafe faults raise a diagnostic
// alarm without functional deviation. DangerousDetected corrupt a
// functional output with the alarm raised; DangerousUndetected corrupt
// it silently — the λDU contributors. Aborted experiments were
// terminated by a supervision watchdog (cycle or wall-clock budget)
// before a verdict; the analyzer treats them as dangerous undetected,
// the conservative bound.
const (
	Silent Outcome = iota
	DetectedSafe
	DangerousDetected
	DangerousUndetected
	Aborted
)

func (o Outcome) String() string {
	switch o {
	case Silent:
		return "silent"
	case DetectedSafe:
		return "detected-safe"
	case DangerousDetected:
		return "dangerous-detected"
	case DangerousUndetected:
		return "dangerous-undetected"
	case Aborted:
		return "aborted"
	default:
		// A corrupted checkpoint or future enum drift must not
		// masquerade as a valid conservative verdict.
		return fmt.Sprintf("unknown(%d)", uint8(o))
	}
}

// ExpResult is the outcome of one injection experiment.
type ExpResult struct {
	Injection
	Outcome Outcome
	// Sens reports whether the injection actually perturbed the zone
	// (the SENS monitor).
	Sens bool
	// Deviated lists observation points that differed from golden.
	Deviated []int
	// FirstDevCycle is the earliest deviation cycle (-1 when none).
	FirstDevCycle int
}

// Coverage aggregates the campaign-completeness monitors: an item set is
// complete when every member was exercised at least once.
type Coverage struct {
	// SensZones[z] = true when some injection perturbed zone z.
	SensZones []bool
	// ObseSeen[o] = true when observation point o deviated at least once.
	ObseSeen []bool
	// DiagSeen[o] = true when diagnostic point o fired at least once.
	DiagSeen []bool
	// Mismatches counts golden-vs-faulty output mismatches seen.
	Mismatches int
}

// Item completion fractions; the experiment is complete only at 100 %.
func (c Coverage) SensFrac() float64 { return frac(c.SensZones) }

// ObseFrac is the fraction of functional observation items covered.
func (c Coverage) ObseFrac() float64 { return frac(c.ObseSeen) }

// DiagFrac is the fraction of diagnostic items covered.
func (c Coverage) DiagFrac() float64 { return frac(c.DiagSeen) }

// Complete reports whether every coverage item was exercised.
func (c Coverage) Complete() bool {
	return c.SensFrac() == 1 && c.ObseFrac() == 1 && c.DiagFrac() == 1
}

func frac(b []bool) float64 {
	if len(b) == 0 {
		return 1
	}
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return float64(n) / float64(len(b))
}

// Report is the full campaign result. Quarantined lists experiments
// the supervisor isolated after exhausting retries (empty unless
// Supervision.Quarantine is on); they carry no verdict, so coverage
// items they would have exercised stay unset and the analyzer counts
// them as dangerous undetected — the conservative bound.
type Report struct {
	Results     []ExpResult
	Quarantined []Quarantined
	Coverage    Coverage
}

// AbortedCount is the number of watchdog-aborted experiments.
func (r *Report) AbortedCount() int {
	n := 0
	for i := range r.Results {
		if r.Results[i].Outcome == Aborted {
			n++
		}
	}
	return n
}

// Run executes the injection campaign: one golden-aligned faulty
// simulation per planned injection, with the SENS/OBSE/DIAG monitors
// and coverage collection of Fig. 4. With Target.Workers unset (0) the
// campaign runs on the calling goroutine; any other value shards it
// across that many goroutines via RunParallel, whose merge keeps the
// report bit-identical.
func (t *Target) Run(g *Golden, plan []Injection) (*Report, error) {
	workers := t.Workers
	if workers == 0 {
		workers = 1
	}
	return t.RunParallel(g, plan, workers)
}

// RunOne is the scalar reference of the experiment loop: one injection
// on the interpreted simulator (internal/sim), against a cold or warm
// golden, honouring Supervision.CycleBudget and the wall watchdog. No
// campaign runs on it — every plan row runs in a lane of the compiled
// kernel (lanes.go) — it is what the tests compare the campaign engine
// against.
func (t *Target) RunOne(g *Golden, inj Injection) (ExpResult, error) {
	return t.runOne(g, inj)
}

// runOne executes one faulty simulation against the golden traces,
// honoring the supervision watchdogs: a cooperative cycle budget
// (deterministic — the abort point depends only on the plan) and an
// optional wall-clock budget read through the injected Supervision
// clock (a last-resort hang guard; see DESIGN.md §9 for why it is off
// by default). A watchdog stop records the Aborted outcome instead of
// hanging the worker.
func (t *Target) runOne(g *Golden, inj Injection) (ExpResult, error) {
	a := t.Analysis
	s, err := t.NewInstance()
	if err != nil {
		return ExpResult{}, err
	}
	tr := g.Trace
	// Warm start: until the fault applies (after the edge of iteration
	// inj.Cycle) the faulty DUT is bit-identical to the golden one, so
	// resume from the latest golden snapshot at-or-before the injection
	// cycle instead of re-simulating the prefix.
	start := 0
	if snap := g.snapshotAtOrBefore(inj.Cycle); snap != nil {
		s.Restore(snap)
		start = int(snap.Cycle())
	}
	if b := t.Supervision.CycleBudget; b > 0 {
		// The budget counts trace cycles: charge the skipped prefix so
		// the watchdog aborts at the same absolute trace cycle as a
		// cold run (the abort point is translated, not moved).
		s.SetCycleBudget(int64(b))
		s.ChargeBudget(int64(start))
	}
	// Early-exit is behavior-preserving only when no watchdog can fire
	// mid-run: a cold run returns Aborted when the budget expires even
	// after the outcome is pinned, so with a live watchdog we must keep
	// simulating to reproduce that verdict (see DESIGN.md §11).
	cb := t.Supervision.CycleBudget
	earlyExitSafe := (cb <= 0 || cb >= tr.Cycles()) && !t.Supervision.wallArmed()
	wallCheck := t.Supervision.wallChecker()
	res := ExpResult{Injection: inj, FirstDevCycle: -1}
	deviated := map[int]bool{}
	funcDev, diagDev := false, false
	var simulated int64
	for c := start; c < tr.Cycles(); c++ {
		if s.BudgetExceeded() || wallCheck(c) {
			res.Outcome = Aborted
			t.Telemetry.AddSimCycles(simulated)
			return res, nil
		}
		tr.ApplyTo(s, c)
		s.Eval()
		s.Step()
		simulated++
		// Faults are applied after the clock edge: an SEU corrupts the
		// state that was just latched; a stuck-at becomes visible from
		// this cycle's settled values onward.
		if c == inj.Cycle {
			inj.Fault.Apply(s)
		}
		if inj.Duration > 0 && c == inj.Cycle+inj.Duration {
			inj.Fault.Remove(s)
		}
		// Monitors.
		if c >= inj.Cycle {
			if !res.Sens {
				if foldNets(s, a.EffectNets(inj.Zone)) != g.zoneVals[inj.Zone][c] {
					res.Sens = true
				}
			}
			for oi := range a.Obs {
				v, x := s.ReadBusX(a.Obs[oi].Nets)
				if v != g.obs[oi].val[c] || x != g.obs[oi].x[c] {
					if !deviated[oi] {
						deviated[oi] = true
						res.Deviated = append(res.Deviated, oi)
					}
					if res.FirstDevCycle < 0 {
						res.FirstDevCycle = c
					}
					if a.Obs[oi].Kind == zones.Diagnostic {
						diagDev = true
					} else {
						funcDev = true
					}
				}
			}
			// Early exit: once every monitor is pinned — functional and
			// diagnostic deviation seen, SENS established (or implied by
			// a flip fault), and every observation point already in
			// Deviated — the remaining cycles cannot change any field of
			// the result row.
			if earlyExitSafe && funcDev && diagDev &&
				(res.Sens || inj.Fault.Kind == faults.Flip) &&
				len(res.Deviated) == len(a.Obs) {
				break
			}
		}
	}
	switch {
	case funcDev && diagDev:
		res.Outcome = DangerousDetected
	case funcDev:
		res.Outcome = DangerousUndetected
	case diagDev:
		res.Outcome = DetectedSafe
	default:
		res.Outcome = Silent
	}
	// A flip injection applies to FF state directly; SENS is implied.
	if inj.Fault.Kind == faults.Flip {
		res.Sens = true
	}
	t.Telemetry.AddSimCycles(simulated)
	return res, nil
}
