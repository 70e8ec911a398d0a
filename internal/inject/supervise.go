package inject

import (
	"errors"
	"fmt"
	"time"
)

// Supervision makes campaign execution fault-tolerant: per-experiment
// watchdogs, failure isolation with retry and quarantine, and periodic
// deterministic checkpoints. The zero value reproduces the historical
// behavior exactly — no budgets, no retries, a failing experiment
// aborts the campaign, nothing is checkpointed.
type Supervision struct {
	// CycleBudget caps the simulated cycles one experiment may consume
	// (0 = unlimited). An experiment that exceeds it is terminated with
	// the Aborted outcome. The budget is cooperative and counted in
	// simulated cycles, so it is fully deterministic: the same plan
	// aborts at the same point at any worker count.
	CycleBudget int
	// WallBudget caps the wall-clock time of one lane batch — the
	// experiments of a batch run in lockstep, so a hang in one is a hang
	// of all (0 = disabled). It needs Clock to be set; wall aborts are
	// inherently nondeterministic and void the byte-identity guarantee
	// for the affected rows, so this is a last-resort hang guard only.
	WallBudget time.Duration
	// Clock supplies the current time for WallBudget. It is injected
	// rather than sampled (time.Now is banned in this package by the
	// determinism linter) so library users choose whether to pay the
	// nondeterminism; cmd/injector passes time.Now.
	Clock func() time.Time
	// Retries re-runs a failing experiment up to this many additional
	// times before giving up on it.
	Retries int
	// Quarantine isolates persistent per-experiment failures into
	// Report.Quarantined and lets the rest of the campaign complete;
	// when false (default) the first failure aborts the campaign with
	// an *ExperimentError, preserving the historical contract.
	Quarantine bool
	// Checkpoint is the path of the campaign checkpoint file
	// ("" = checkpointing disabled). Writes are atomic
	// (temp file + rename), so a crash at any instant leaves either
	// the previous or the next complete checkpoint on disk.
	Checkpoint string
	// CheckpointEvery is the number of completed experiments between
	// checkpoint writes (<= 0 selects 16). A final checkpoint is
	// always written when the campaign finishes or stops.
	CheckpointEvery int
	// Resume preloads completed results from Checkpoint (when the file
	// exists) and replays only the remaining plan indices. The merged
	// report is byte-identical to an uninterrupted run.
	Resume bool
	// StopAfter > 0 aborts the campaign with ErrCampaignStopped once
	// that many experiments have completed in this process, right
	// after a checkpoint write — a deterministic crash hook used by the
	// resume tests and the CI kill/resume smoke job.
	StopAfter int
	// Interrupt, when non-nil, cancels the campaign cooperatively: once
	// the channel is closed, workers finish the experiment in hand, stop
	// claiming new plan rows, and Run/RunParallel/RunRange return
	// ErrCampaignInterrupted (core.Run wires a context's Done channel
	// here). Cancellation is control-plane only — a campaign either
	// completes with its usual byte-identical report or returns the
	// error; it never yields a partial report. Periodic checkpoints
	// written before the interrupt remain valid for resume.
	Interrupt <-chan struct{}
}

// interrupted returns a cheap poll of the Interrupt channel — always
// false when cancellation is not wired, so the hot loops pay one nil
// check.
func (sv *Supervision) interrupted() func() bool {
	ch := sv.Interrupt
	if ch == nil {
		return func() bool { return false }
	}
	return func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// wallArmed reports whether the wall-clock watchdog is live — the one
// mode whose verdicts depend on host timing, so early retirement and
// the static pre-pass stand down while it is.
func (sv *Supervision) wallArmed() bool { return sv.WallBudget > 0 && sv.Clock != nil }

// defaultCheckpointEvery is the checkpoint cadence when unset.
const defaultCheckpointEvery = 16

// wallChecker returns the per-cycle wall-budget poll, a no-op when the
// wall watchdog is disabled. The clock is only sampled every 256
// cycles so the guard stays invisible next to the simulation cost.
func (sv *Supervision) wallChecker() func(cycle int) bool {
	if !sv.wallArmed() {
		return func(int) bool { return false }
	}
	deadline := sv.Clock().Add(sv.WallBudget)
	return func(cycle int) bool {
		if cycle&0xff != 0 {
			return false
		}
		return sv.Clock().After(deadline)
	}
}

// ErrCampaignStopped is returned by Run/RunParallel when the StopAfter
// crash hook fires. The campaign state up to the stop is on disk in
// the checkpoint file; resuming completes the run.
var ErrCampaignStopped = errors.New("inject: campaign stopped by supervision hook (state checkpointed)")

// ErrCampaignInterrupted is returned by Run/RunParallel/RunRange when
// Supervision.Interrupt fires before every plan row in the span has a
// verdict. An interrupt that lands after the last row completes is
// ignored: the finished report is returned as usual.
var ErrCampaignInterrupted = errors.New("inject: campaign interrupted")

// ExperimentError is the typed per-experiment failure returned by
// Run/RunParallel when quarantine is off. It supports errors.As and
// errors.Unwrap; under parallelism the error of the lowest failing
// plan index wins, matching serial semantics.
type ExperimentError struct {
	// PlanIndex is the experiment's position in the plan.
	PlanIndex int
	// Injection is the planned experiment that failed.
	Injection Injection
	// Attempts counts how many times the experiment was tried
	// (1 + Supervision.Retries).
	Attempts int
	// Err is the underlying failure (instance construction error, a
	// recovered panic or an *UnsupportedFaultError).
	Err error
}

func (e *ExperimentError) Error() string {
	return fmt.Sprintf("inject: experiment %d (zone %d, %v at cycle %d) failed after %d attempt(s): %v",
		e.PlanIndex, e.Injection.Zone, e.Injection.Fault.Kind, e.Injection.Cycle, e.Attempts, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/errors.As.
func (e *ExperimentError) Unwrap() error { return e.Err }

// Quarantined records one experiment the supervisor gave up on: its
// plan position, the injection descriptor and the final error. The
// error is kept as a rendered string so reports and checkpoints stay
// value-comparable and byte-stable.
type Quarantined struct {
	PlanIndex int
	Injection Injection
	// Attempts is how many times the experiment was tried before
	// quarantine (1 + Supervision.Retries).
	Attempts int
	Err      string
}

// runSupervised runs plan row i alone — a one-lane batch on the same
// machine every batch uses — under the retry policy. On persistent
// failure it returns a typed *ExperimentError carrying the plan index.
// Each failed attempt that will be retried is reported to the
// telemetry hub (out-of-band; the report never sees retries that
// eventually succeeded).
func (p *Prepared) runSupervised(i int) (ExpResult, error) {
	attempts := 1 + p.t.Supervision.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		res, err := p.runBatchRecovered([]int{i})
		if err == nil {
			return res[0], nil
		}
		lastErr = err
		if a+1 < attempts {
			p.t.Telemetry.Retry(i, a+1, err.Error())
		}
	}
	return ExpResult{}, &ExperimentError{
		PlanIndex: i, Injection: p.plan[i], Attempts: attempts, Err: lastErr,
	}
}
