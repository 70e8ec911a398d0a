package dist

import (
	"fmt"

	"repro/internal/designs"
	"repro/internal/fit"
	"repro/internal/fmea"
	"repro/internal/inject"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/zones"
)

// Spec pins the campaign inputs every process in a distributed run
// must agree on. Coordinator and workers each call Build locally —
// nothing heavyweight crosses the wire — and the resulting plan
// fingerprint (hash + length) is validated at hello, so a worker built
// from different parameters is turned away before it can contribute a
// single record. cmd/injector builds its single-process campaign from
// the same Spec, so the three front ends cannot disagree on what a set
// of flags means.
type Spec struct {
	// Design is a name from the design catalogue (internal/designs)
	// that has a DUT: "v1", "v2", "cpu" or "cpu-lockstep".
	Design string
	// AddrWidth and Words shape the memory designs and their March
	// workload; the CPU designs ignore them.
	AddrWidth int
	Words     int
	// Transient/Permanent are per-zone experiment counts; Wide is the
	// global wide-fault experiment count.
	Transient int
	Permanent int
	Wide      int
	// Seed drives the workload and plan construction (WidePlan uses
	// Seed+1).
	Seed uint64
	// Warmstart is the golden snapshot cadence in cycles (0 = cold
	// start). A local throughput knob: it is applied before the golden
	// run but does not alter the plan fingerprint or any result byte,
	// so processes in one campaign may disagree on it.
	Warmstart int
}

// Key renders the campaign-defining spec fields as one canonical
// string — the cheap pre-build identity of a campaign, and the only
// place that lists those fields. The plan fingerprint validated at
// hello is derived from the *built* plan and costs a golden run; Key
// costs a Sprintf, which is what a content-addressed result cache
// (internal/serve) wants to consult before deciding whether to build
// anything at all. Warmstart is excluded: it is a process-local
// throughput knob that never alters a result byte.
func (sp Spec) Key() string {
	return fmt.Sprintf("%s/a%d/w%d/t%d/p%d/g%d/s%d",
		sp.Design, sp.AddrWidth, sp.Words, sp.Transient, sp.Permanent, sp.Wide, sp.Seed)
}

// TraceID derives the campaign-scoped trace id every process in one
// run agrees on — a hash of Key, so coordinator, workers and the
// single-process injector label their span journals with the same
// trace before the first lease carries it over the wire.
func (sp Spec) TraceID() uint64 {
	return telemetry.TraceID("campaign", sp.Key())
}

// Campaign is a fully built campaign: everything a coordinator needs
// to merge and render, and everything a worker needs to run leases.
type Campaign struct {
	Name      string
	Analysis  *zones.Analysis
	Target    *inject.Target
	Golden    *inject.Golden
	Trace     *workload.Trace
	Plan      []inject.Injection
	Worksheet *fmea.Worksheet
}

// Build constructs the campaign with no observer; see BuildObserved.
func (sp Spec) Build() (*Campaign, error) { return sp.BuildObserved(nil) }

// BuildObserved is the one campaign set-up sequence: catalogue design,
// zone analysis, injection target, golden run, plan and worksheet.
// Every front end runs it, so equal specs give equal plan fingerprints
// in every process. tel (nil-safe) sees the phases build,
// zone-extraction, golden-run and plan, and stays attached to the
// returned target so the campaign reports to the same hub.
func (sp Spec) BuildObserved(tel *telemetry.Campaign) (*Campaign, error) {
	tel.Phase("build")
	dut, err := designs.BuildDUT(sp.Design, sp.AddrWidth, sp.Words, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	tel.Phase("zone-extraction")
	a, err := dut.Analyze()
	if err != nil {
		return nil, err
	}
	target := dut.Target(a)
	target.SnapshotEvery = sp.Warmstart
	target.Telemetry = tel
	tr := dut.ValidationTrace()
	tel.Phase("golden-run")
	g, err := target.RunGolden(tr)
	if err != nil {
		return nil, err
	}
	tel.Phase("plan")
	plan := inject.BuildPlan(a, g, inject.PlanConfig{
		TransientPerZone: sp.Transient,
		PermanentPerZone: sp.Permanent,
		Seed:             sp.Seed,
	})
	plan = append(plan, inject.WidePlan(a, g, sp.Wide, sp.Seed+1)...)
	wks := dut.Worksheet(a, fit.Default())
	// Close the last phase: what the caller starts next (lease spans,
	// the campaign phase) parents under its own root, not under "plan".
	tel.PhaseDone()
	return &Campaign{
		Name:      dut.DesignName(),
		Analysis:  a,
		Target:    target,
		Golden:    g,
		Trace:     tr,
		Plan:      plan,
		Worksheet: wks,
	}, nil
}
