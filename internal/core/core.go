// Package core orchestrates the paper's methodology end to end — the
// TÜV-approved flow to assess and validate the Safe Failure Fraction of
// a SoC in adherence to IEC 61508:
//
//  1. extract sensible zones and observation points from the netlist;
//  2. fill the FMEA worksheet (rates, S/F/ζ factors, clamped DDF claims)
//     and compute λS/λD/λDD/λDU, DC, SFF and the claimable SIL;
//  3. span the assumptions (sensitivity);
//  4. validate by fault injection: workload completeness, exhaustive
//     zone-failure injection, coverage items, measured-vs-estimated
//     S/DDF cross-check, effects-table consistency, wide/global fault
//     experiments, and workload toggle efficiency.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/drc"
	"repro/internal/fit"
	"repro/internal/fmea"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/zones"
)

// DUT is a design pluggable into the flow.
type DUT interface {
	DesignName() string
	// Analyze extracts the sensible zones.
	Analyze() (*zones.Analysis, error)
	// Worksheet fills the FMEA spreadsheet for the design.
	Worksheet(*zones.Analysis, fit.Rates) *fmea.Worksheet
	// Target wires the design into the fault injector.
	Target(*zones.Analysis) *inject.Target
	// ValidationTrace is the injection-campaign workload.
	ValidationTrace() *workload.Trace
	// CoverageTrace is the (usually richer) workload used for the
	// toggle-efficiency measurement.
	CoverageTrace() *workload.Trace
}

// Options tune the flow.
type Options struct {
	Rates     fit.Rates
	HFT       int
	TargetSIL iec61508.SIL
	// Sensitivity span factor for the assumption battery.
	Span float64
	// SkipDRC disables the mandatory static DRC pre-flight (tests only;
	// a certification run always checks the triple before grading).
	SkipDRC bool
	// DRC tunes the pre-flight rule thresholds and selection.
	DRC drc.Config
	// Validation controls.
	RunValidation   bool
	Plan            inject.PlanConfig
	WideFaults      int
	Tolerance       float64 // est-vs-measured acceptance band
	ToggleThreshold float64 // workload-efficiency threshold (0.99)
	// Supervision is the campaign fault-tolerance policy (watchdogs,
	// retry/quarantine, checkpoint/resume) applied to the injection
	// target. The zero value is fail-fast: any experiment failure
	// aborts the flow, as before.
	Supervision inject.Supervision
	// Workers/Lanes/Collapse are the engine throughput knobs threaded
	// onto the injection target (goroutine sharding, lane-batch width
	// with 0 meaning the full 64, static collapse). All three are
	// byte-neutral: the report is bit-identical at any setting, so
	// services may tune them per deployment without voiding
	// certification identity.
	Workers  int
	Lanes    int
	Collapse bool
	// Ctx cancels an in-flight assessment: the flow checks it between
	// phases and the injection campaigns poll it cooperatively
	// (Supervision.Interrupt), so an abandoned job stops within about
	// one experiment instead of running to completion. nil means
	// background — never cancelled.
	Ctx context.Context
	// Telemetry is the observability hub threaded through the flow
	// (phase transitions, campaign lifecycle events, metrics). nil
	// disables the layer; the assessment is byte-identical either way.
	Telemetry *telemetry.Campaign
}

// DefaultOptions mirrors the paper's defaults: SIL3 target at HFT 0,
// 99 % toggle threshold.
func DefaultOptions() Options {
	return Options{
		Rates:           fit.Default(),
		HFT:             0,
		TargetSIL:       iec61508.SIL3,
		Span:            2,
		DRC:             drc.DefaultConfig(),
		RunValidation:   true,
		Plan:            inject.DefaultPlanConfig(),
		WideFaults:      16,
		Tolerance:       0.35,
		ToggleThreshold: 0.99,
	}
}

// Validation is the fault-injection half of an assessment.
type Validation struct {
	Complete      bool
	InactiveZones []string
	Report        *inject.Report
	WideReport    *inject.Report
	Rows          []inject.ValidationRow
	PassFraction  float64
	Effects       []inject.EffectCheck
	EffectsOK     bool
	ToggleRaw     float64
	ToggleAdj     float64
	ToggleOK      bool
	// Degraded reports a campaign that completed without a verdict on
	// every experiment (quarantined or watchdog-aborted rows, counted
	// below across the zone and wide campaigns). The measured
	// fractions are then conservative lower bounds and every grade in
	// the report is CONDITIONAL.
	Degraded    bool
	Quarantined int
	AbortedExps int
}

// Assessment is the flow's output: the safety case for one design.
type Assessment struct {
	Name      string
	Analysis  *zones.Analysis
	Worksheet *fmea.Worksheet
	// DRC is the static pre-flight result (nil when Options.SkipDRC).
	// Error-level findings do not abort the flow — the assessor wants
	// the full picture — but the report marks every grade conditional.
	DRC         *drc.Result
	Metrics     fmea.Metrics
	SIL         iec61508.SIL
	TargetSIL   iec61508.SIL
	TargetMet   bool
	Sensitivity fmea.Sensitivity
	Validation  *Validation
}

// DRCClean reports whether the pre-flight ran and found no error-level
// violations (vacuously true when skipped).
func (as *Assessment) DRCClean() bool {
	return as.DRC == nil || as.DRC.Clean()
}

// CampaignHealthy reports whether the validation campaign (when run)
// delivered a verdict on every planned experiment. A degraded campaign
// makes the assessment CONDITIONAL, like an unclean DRC pre-flight.
func (as *Assessment) CampaignHealthy() bool {
	return as.Validation == nil || !as.Validation.Degraded
}

// Run executes the flow over a DUT. When Options.Ctx is set and is
// cancelled mid-flight, Run returns an error wrapping the context's
// error (context.Canceled / DeadlineExceeded) and never a partial
// assessment.
func Run(dut DUT, opts Options) (*Assessment, error) {
	tel := opts.Telemetry
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	canceled := func(stage string) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s: %w", stage, err)
		}
		return nil
	}
	// With tracing live, the whole assessment runs under one span so
	// the per-phase spans (and everything below them) nest under it;
	// the previous trace root — the CLI's campaign span — is restored
	// on the way out.
	if asp := tel.StartSpan("assessment"); asp.Valid() {
		prev := tel.TraceRoot()
		tel.SetTraceRoot(asp)
		defer func() {
			tel.PhaseDone()
			tel.SetTraceRoot(prev)
			asp.End()
		}()
	}
	if err := canceled("zone extraction"); err != nil {
		return nil, err
	}
	tel.Phase("zone-extraction")
	a, err := dut.Analyze()
	if err != nil {
		return nil, fmt.Errorf("core: zone extraction: %w", err)
	}
	tel.Phase("worksheet")
	w := dut.Worksheet(a, opts.Rates)
	m := w.Totals()
	as := &Assessment{
		Name:        dut.DesignName(),
		Analysis:    a,
		Worksheet:   w,
		Metrics:     m,
		SIL:         iec61508.MaxSIL(m.SFF(), opts.HFT, true),
		TargetSIL:   opts.TargetSIL,
		Sensitivity: w.SpanAssumptions(opts.Span),
	}
	as.TargetMet = as.SIL >= opts.TargetSIL
	if !opts.SkipDRC {
		tel.Phase("drc-preflight")
		as.DRC, err = drc.Run(drc.Input{
			Netlist: a.N, Analysis: a, Worksheet: w, Rates: &opts.Rates,
		}, opts.DRC)
		if err != nil {
			return nil, fmt.Errorf("core: DRC pre-flight: %w", err)
		}
	}
	if !opts.RunValidation {
		return as, nil
	}

	target := dut.Target(a)
	target.Supervision = opts.Supervision
	target.Telemetry = tel
	target.Workers = opts.Workers
	target.Lanes = opts.Lanes
	target.Collapse = opts.Collapse
	// Thread the context into the campaign engine: the injection loops
	// poll the channel cooperatively, so one ctx cancel stops golden
	// run, zone campaign and wide campaign alike.
	if opts.Ctx != nil && target.Supervision.Interrupt == nil {
		target.Supervision.Interrupt = opts.Ctx.Done()
	}
	if err := canceled("golden run"); err != nil {
		return nil, err
	}
	tel.Phase("golden-run")
	golden, err := target.RunGolden(dut.ValidationTrace())
	if err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("core: golden run: %w", err))
	}
	v := &Validation{}
	var inactive []int
	v.Complete, inactive = golden.CompletenessOK()
	for _, zi := range inactive {
		v.InactiveZones = append(v.InactiveZones, a.Zones[zi].Name)
	}
	plan := inject.BuildPlan(a, golden, opts.Plan)
	if err := canceled("injection campaign"); err != nil {
		return nil, err
	}
	tel.Phase("zone-campaign")
	v.Report, err = target.Run(golden, plan)
	if err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("core: injection campaign: %w", err))
	}
	if opts.WideFaults > 0 {
		widePlan := inject.WidePlan(a, golden, opts.WideFaults, opts.Plan.Seed+1)
		if err := canceled("wide/global campaign"); err != nil {
			return nil, err
		}
		tel.Phase("wide-campaign")
		v.WideReport, err = target.Run(golden, widePlan)
		if err != nil {
			return nil, ctxErr(ctx, fmt.Errorf("core: wide/global campaign: %w", err))
		}
	}
	for _, rep := range []*inject.Report{v.Report, v.WideReport} {
		if rep == nil {
			continue
		}
		v.Quarantined += len(rep.Quarantined)
		v.AbortedExps += rep.AbortedCount()
	}
	v.Degraded = v.Quarantined > 0 || v.AbortedExps > 0
	v.Rows = v.Report.ValidateWorksheet(a, w, opts.Tolerance)
	v.PassFraction = inject.PassFraction(v.Rows)
	v.Effects = v.Report.CheckEffects(a)
	v.EffectsOK = true
	for _, ec := range v.Effects {
		if !ec.Consistent {
			v.EffectsOK = false
		}
	}
	if err := canceled("toggle measurement"); err != nil {
		return nil, err
	}
	tel.Phase("toggle-coverage")
	toggleRep, err := target.ToggleCoverage(dut.CoverageTrace())
	if err != nil {
		return nil, fmt.Errorf("core: toggle measurement: %w", err)
	}
	v.ToggleRaw = toggleRep.Coverage()
	v.ToggleAdj, _ = target.AdjustedToggle(toggleRep)
	v.ToggleOK = v.ToggleAdj >= opts.ToggleThreshold
	as.Validation = v
	return as, nil
}

// Report renders the assessment as a certification-style text document.
func (as *Assessment) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Safety assessment: %s ===\n\n", as.Name)
	fmt.Fprintf(&b, "%s\n\n", as.Analysis.Summary())

	t := report.NewTable("IEC 61508 metrics",
		"λS [FIT]", "λD [FIT]", "λDD [FIT]", "λDU [FIT]", "DC", "SFF", "SIL (HFT0)")
	t.AddRow(as.Metrics.LambdaS, as.Metrics.LambdaD, as.Metrics.LambdaDD,
		as.Metrics.LambdaDU, as.Metrics.DC(), as.Metrics.SFF(), as.SIL.String())
	b.WriteString(t.Render())
	pfh := iec61508.PFH(as.Metrics.LambdaDU)
	fmt.Fprintf(&b, "\nContinuous-mode PFH from λDU: %.3g /h (grades %v by the PFH table)\n",
		pfh, iec61508.SILFromPFH(pfh))
	fmt.Fprintf(&b, "Target %v: %s\n", as.TargetSIL, verdict(as.TargetMet))
	fmt.Fprintf(&b, "Sensitivity: SFF in [%.4f, %.4f] (spread %.4f) across %d spans\n",
		as.Sensitivity.MinSFF, as.Sensitivity.MaxSFF, as.Sensitivity.Spread(), len(as.Sensitivity.Cases))

	if as.DRC != nil {
		fmt.Fprintf(&b, "\n--- Static DRC pre-flight ---\n")
		fmt.Fprintf(&b, "findings: %s: %s\n", as.DRC.Summary(), verdict(as.DRC.Clean()))
		if !as.DRC.Clean() {
			fmt.Fprintf(&b, "!! the SIL grade above is CONDITIONAL: the design triple has error-level DRC violations\n")
			for i := range as.DRC.Findings {
				f := &as.DRC.Findings[i]
				if f.Severity == drc.Error {
					fmt.Fprintf(&b, "  [%s] %s: %s\n", f.Rule, f.Loc, f.Message)
				}
			}
		}
	}

	rt := report.NewTable("\nTop criticality ranking (by λDU)", "#", "zone", "λDU [FIT]", "share")
	for i, zr := range as.Worksheet.Ranking() {
		if i >= 10 {
			break
		}
		rt.AddRow(i+1, zr.ZoneName, zr.Metrics.LambdaDU, report.Pct(zr.ShareDU))
	}
	b.WriteString(rt.Render())

	if v := as.Validation; v != nil {
		fmt.Fprintf(&b, "\n--- Validation (fault injection) ---\n")
		fmt.Fprintf(&b, "workload completeness: %s", verdict(v.Complete))
		if len(v.InactiveZones) > 0 {
			fmt.Fprintf(&b, " (untriggered: %v)", v.InactiveZones)
		}
		b.WriteByte('\n')
		cov := v.Report.Coverage
		fmt.Fprintf(&b, "campaign coverage: SENS %s, OBSE %s, DIAG %s, %d mismatches\n",
			report.Pct(cov.SensFrac()), report.Pct(cov.ObseFrac()), report.Pct(cov.DiagFrac()), cov.Mismatches)
		if v.Degraded {
			fmt.Fprintf(&b, "!! degraded campaign: %d quarantined, %d watchdog-aborted experiment(s) —\n", v.Quarantined, v.AbortedExps)
			fmt.Fprintf(&b, "!! affected rows counted as dangerous undetected; the SIL grade above is CONDITIONAL\n")
		}
		fmt.Fprintf(&b, "estimate cross-check: %s of zones within tolerance: %s\n",
			report.Pct(v.PassFraction), verdict(v.PassFraction >= 0.9))
		fmt.Fprintf(&b, "effects tables consistent with main/secondary analysis: %s\n", verdict(v.EffectsOK))
		fmt.Fprintf(&b, "workload toggle efficiency: raw %s, adjusted %s: %s\n",
			report.Pct(v.ToggleRaw), report.Pct(v.ToggleAdj), verdict(v.ToggleOK))
		if v.WideReport != nil {
			fmt.Fprintf(&b, "wide/global experiments: %d run, %d with multi-point effects\n",
				len(v.WideReport.Results), multiEffect(v.WideReport))
		}
	}
	return b.String()
}

// ctxErr folds a cooperative campaign interrupt back onto its cause:
// when the context is cancelled, the caller should see the context's
// error (wrapped, so errors.Is(err, context.Canceled) holds) rather
// than the engine-internal interrupt sentinel.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, inject.ErrCampaignInterrupted) {
		return fmt.Errorf("%v: %w", err, cerr)
	}
	return err
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func multiEffect(r *inject.Report) int {
	n := 0
	for _, res := range r.Results {
		if len(res.Deviated) >= 2 {
			n++
		}
	}
	return n
}
