package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Snapshot is a point-in-time view of a live campaign — the payload of
// the /progress endpoint and the progress reporter. Rates are averaged
// since the campaign start; Interval* rates are since the previous
// snapshot taken by the same reporter (zero elsewhere).
type Snapshot struct {
	Done        int64 `json:"done"`
	Total       int64 `json:"total"`
	InFlight    int64 `json:"in_flight"`
	Workers     int64 `json:"workers"`
	Preloaded   int64 `json:"preloaded"`
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`
	Checkpoints int64 `json:"checkpoints"`
	SimCycles   int64 `json:"sim_cycles"`

	// Distributed-campaign scheduling (internal/dist); all zero for
	// single-process runs.
	LeasesIssued      int64 `json:"leases_issued"`
	LeasesExpired     int64 `json:"leases_expired"`
	WorkerRetries     int64 `json:"worker_retries"`
	RangesQuarantined int64 `json:"ranges_quarantined"`
	WorkersActive     int64 `json:"workers_active"`

	// Outcomes maps outcome labels to counts (sorted keys on render).
	Outcomes map[string]int64 `json:"outcomes"`

	ElapsedSec  float64 `json:"elapsed_sec"`
	ExpPerSec   float64 `json:"exp_per_sec"`
	CyclePerSec float64 `json:"cycles_per_sec"`
	// Utilization is in-flight experiments over workers, 0..1.
	Utilization float64 `json:"utilization"`
	// ETASec estimates seconds to completion from the average rate
	// (-1 when unknown).
	ETASec float64 `json:"eta_sec"`
}

// Snapshot renders the campaign's current state. Without a clock the
// rate and ETA fields stay zero/-1 and only the counters are filled.
func (c *Campaign) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{ETASec: -1}
	}
	s := Snapshot{
		Done:        c.expDone.Load(),
		Total:       c.planTotal.Load(),
		InFlight:    c.inFlight.Load(),
		Workers:     c.workers.Load(),
		Preloaded:   c.preloaded.Load(),
		Retries:     c.retries.Load(),
		Quarantined: c.quarantined.Load(),
		Checkpoints: c.ckptWrites.Load(),
		SimCycles:   c.simCycles.Load(),

		LeasesIssued:      c.leasesOut.Load(),
		LeasesExpired:     c.leasesExp.Load(),
		WorkerRetries:     c.workerRetry.Load(),
		RangesQuarantined: c.rangesQuar.Load(),
		WorkersActive:     c.distWorkers.Load(),

		Outcomes: map[string]int64{},
		ETASec:   -1,
	}
	c.mu.Lock()
	for name, ctr := range c.outcomes { //det:order copying into a map
		s.Outcomes[name] = ctr.Load()
	}
	started := c.started
	c.mu.Unlock()
	if s.Workers > 0 {
		s.Utilization = float64(s.InFlight) / float64(s.Workers)
	}
	if c.Clock != nil && !started.IsZero() {
		s.ElapsedSec = c.Clock().Sub(started).Seconds()
		if s.ElapsedSec > 0 {
			s.ExpPerSec = float64(s.Done-s.Preloaded) / s.ElapsedSec
			s.CyclePerSec = float64(s.SimCycles) / s.ElapsedSec
			if s.ExpPerSec > 0 && s.Total > s.Done {
				s.ETASec = float64(s.Total-s.Done) / s.ExpPerSec
			}
		}
	}
	s.sanitize()
	return s
}

// sanitize clamps every derived float to a finite value. The guards in
// Snapshot already avoid dividing by zero, but this is a product
// endpoint contract, not an implementation accident: encoding/json
// refuses +Inf/NaN outright, and a snapshot that cannot marshal turns
// the /progress poll of an empty or just-started campaign into a
// truncated body. Rates clamp to 0 (nothing measured), ETA to -1
// (unknown).
func (s *Snapshot) sanitize() {
	finite := func(v *float64, fallback float64) {
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			*v = fallback
		}
	}
	finite(&s.ElapsedSec, 0)
	finite(&s.ExpPerSec, 0)
	finite(&s.CyclePerSec, 0)
	finite(&s.Utilization, 0)
	finite(&s.ETASec, -1)
}

// Line renders the snapshot as the single-line progress format.
func (s Snapshot) Line() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	line := fmt.Sprintf("progress: %d/%d exp (%.1f%%)", s.Done, s.Total, pct)
	if s.ExpPerSec > 0 {
		line += fmt.Sprintf(" | %.1f exp/s", s.ExpPerSec)
	}
	if s.Workers > 0 {
		line += fmt.Sprintf(" | workers %d/%d busy", s.InFlight, s.Workers)
	}
	line += fmt.Sprintf(" | retries %d quarantined %d ckpts %d", s.Retries, s.Quarantined, s.Checkpoints)
	if s.LeasesIssued > 0 {
		line += fmt.Sprintf(" | leases %d (expired %d, retries %d, quarantined %d) dist-workers %d",
			s.LeasesIssued, s.LeasesExpired, s.WorkerRetries, s.RangesQuarantined, s.WorkersActive)
	}
	if len(s.Outcomes) > 0 {
		names := make([]string, 0, len(s.Outcomes))
		for name := range s.Outcomes { //det:order collecting before sort
			names = append(names, name)
		}
		sort.Strings(names)
		line += " |"
		for _, name := range names {
			line += fmt.Sprintf(" %s=%d", name, s.Outcomes[name])
		}
	}
	if s.ETASec >= 0 {
		line += fmt.Sprintf(" | ETA %s", time.Duration(s.ETASec*float64(time.Second)).Round(time.Second))
	}
	return line
}

// Reporter prints periodic progress snapshots. It owns a goroutine;
// Stop prints one final snapshot and waits for the goroutine to exit.
type Reporter struct {
	stop chan struct{}
	done chan struct{}
}

// StartReporter begins periodic progress output (typically to stderr,
// keeping stdout byte-stable). every <= 0 defaults to 10s.
func StartReporter(w io.Writer, c *Campaign, every time.Duration) *Reporter {
	if every <= 0 {
		every = 10 * time.Second
	}
	r := &Reporter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, c.Snapshot().Line())
			case <-r.stop:
				fmt.Fprintln(w, c.Snapshot().Line())
				return
			}
		}
	}()
	return r
}

// Stop emits a final snapshot line and shuts the reporter down. Safe
// to call once; a nil reporter is a no-op.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	close(r.stop)
	<-r.done
}
