// Package mission validates the FMEA's bottom line empirically: a
// Monte Carlo mission simulation where single faults arrive with
// probabilities proportional to the worksheet's physical failure rates
// (importance sampling over the — astronomically rare — per-mission
// fault event), are injected into live gate-level simulations, and the
// observed outcome mix yields an *empirical* safe failure fraction with
// a confidence interval to set against the analytical SFF.
//
// This differs from the Section 5 campaign in one essential way: the
// campaign samples zones uniformly (coverage-oriented), while the
// mission sampler weights every zone by its λ contribution — a zone
// with 10× the failure rate receives 10× the events, so the outcome mix
// estimates the fleet-level rates directly.
package mission

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/fmea"
	"repro/internal/inject"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// Result is the Monte Carlo estimate.
type Result struct {
	Missions int
	// Outcome counts over sampled single-fault missions.
	Safe        int // silent or detected-safe
	DangerDet   int
	DangerUndet int
	// LambdaTotal is the worksheet's λS+λD in FIT.
	LambdaTotal float64
	// SFFEmpirical = (safe + detected-dangerous) fraction; Low/High give
	// the 95% normal-approximation interval.
	SFFEmpirical float64
	SFFLow       float64
	SFFHigh      float64
	// LambdaDUEmpirical is λ_total × P(dangerous-undetected), in FIT.
	LambdaDUEmpirical float64
}

// String renders the estimate.
func (r Result) String() string {
	return fmt.Sprintf("missions=%d SFF_emp=%.4f [%.4f, %.4f] λDU_emp=%.4f FIT",
		r.Missions, r.SFFEmpirical, r.SFFLow, r.SFFHigh, r.LambdaDUEmpirical)
}

// event is one sampleable fault class with its rate weight.
type event struct {
	zone      int
	transient bool
	weight    float64
}

// Run samples `missions` single-fault missions. Transient events flip a
// random state bit of the zone (or pulse a boundary net for peripheral
// and I/O zones — a read-path upset approximation); permanent events
// stick a random zone net. Arrival instants are uniform over the
// workload horizon, as for a homogeneous Poisson process.
func Run(target *inject.Target, g *inject.Golden, w *fmea.Worksheet, missions int, seed uint64) (Result, error) {
	a := target.Analysis
	var events []event
	var total float64
	for zi := range a.Zones {
		m := w.ZoneMetrics(zi)
		if m.Total() == 0 {
			continue
		}
		// Split the zone's effective rate into transient and permanent
		// parts by re-walking its rows.
		var trans, perm float64
		for _, row := range w.Rows {
			if row.Zone != zi {
				continue
			}
			usage := row.Freq.Usage()
			trans += row.Lambda.Transient * usage * row.Lifetime
			perm += row.Lambda.Permanent * usage
		}
		if trans > 0 {
			events = append(events, event{zone: zi, transient: true, weight: trans})
		}
		if perm > 0 {
			events = append(events, event{zone: zi, transient: false, weight: perm})
		}
		total += trans + perm
	}
	if len(events) == 0 {
		return Result{}, fmt.Errorf("mission: worksheet carries no rates")
	}

	rng := xrand.New(seed)
	pick := func() event {
		x := rng.Float64() * total
		for _, e := range events {
			x -= e.weight
			if x <= 0 {
				return e
			}
		}
		return events[len(events)-1]
	}

	// Draw every mission first, then run the drawn injections as one
	// campaign plan.
	res := Result{Missions: missions, LambdaTotal: total}
	horizon := g.Trace.Cycles()
	var plan []inject.Injection
	for m := 0; m < missions; m++ {
		e := pick()
		inj, ok := buildInjection(a, e, rng, horizon)
		if !ok {
			// Zone without injectable sites (e.g. rate-only row): count
			// conservatively as dangerous undetected.
			res.DangerUndet++
			continue
		}
		plan = append(plan, inj)
	}
	rep, err := target.Run(g, plan)
	if err != nil {
		return Result{}, err
	}
	// A quarantined mission carries no verdict: dangerous undetected,
	// like an aborted one.
	res.DangerUndet += len(rep.Quarantined)
	for i := range rep.Results {
		switch rep.Results[i].Outcome {
		case inject.Silent, inject.DetectedSafe:
			res.Safe++
		case inject.DangerousDetected:
			res.DangerDet++
		default:
			res.DangerUndet++
		}
	}
	p := float64(res.Safe+res.DangerDet) / float64(missions)
	res.SFFEmpirical = p
	sigma := math.Sqrt(p * (1 - p) / float64(missions))
	res.SFFLow = math.Max(0, p-1.96*sigma)
	res.SFFHigh = math.Min(1, p+1.96*sigma)
	res.LambdaDUEmpirical = total * float64(res.DangerUndet) / float64(missions)
	return res, nil
}

// buildInjection maps a sampled event onto a concrete injection.
func buildInjection(a *zones.Analysis, e event, rng *xrand.RNG, horizon int) (inject.Injection, bool) {
	z := &a.Zones[e.zone]
	cycle := rng.Intn(maxInt(1, horizon-1))
	if e.transient {
		if len(z.FFs) > 0 {
			ff := z.FFs[rng.Intn(len(z.FFs))]
			return inject.Injection{
				Zone: e.zone, Fault: faults.FFFlip(ff), Cycle: cycle,
				Mode: "mission transient",
			}, true
		}
		nets := a.EffectNets(e.zone)
		if len(nets) == 0 {
			return inject.Injection{}, false
		}
		return inject.Injection{
			Zone: e.zone, Fault: faults.NetSA(nets[rng.Intn(len(nets))], rng.Bool()),
			Cycle: cycle, Duration: 1, Mode: "mission transient (boundary)",
		}, true
	}
	nets := a.EffectNets(e.zone)
	if len(nets) == 0 {
		return inject.Injection{}, false
	}
	return inject.Injection{
		Zone: e.zone, Fault: faults.NetSA(nets[rng.Intn(len(nets))], rng.Bool()),
		Cycle: cycle, Mode: "mission permanent",
	}, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
