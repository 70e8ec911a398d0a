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

// Assessment is the flow's output: the safety case for one design. It
// is evidence plus a grade: Assess fills the measured fields and
// Evidence, Grade fills SIL, TargetSIL, TargetMet and the validation
// rows' verdicts.
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
	// Evidence is the compact measured record Report and SRS render
	// from. An assessment graded from cached evidence carries only it:
	// Analysis, Worksheet, DRC and the campaign reports are nil. On an
	// assessment assembled field by field it is nil, and the renderers
	// derive it from the fields above.
	Evidence *Evidence
}

// Evidence is what one assessment measured, cut down to what Grade and
// the renderers read. It depends on the design and the measuring
// options only — never on TargetSIL, HFT or Tolerance — so one Evidence
// grades against any target. It holds no netlist, zone analysis,
// worksheet or campaign report, so keeping it costs kilobytes, not the
// campaign's working set.
type Evidence struct {
	Name string
	// Zones is the zone-extraction summary line.
	Zones       string
	Metrics     fmea.Metrics
	Sensitivity fmea.Sensitivity
	// WorksheetRows and Techniques are the worksheet facts the SRS
	// cites: its row count and the diagnostic techniques its rows
	// claim, in catalogue order.
	WorksheetRows int
	Techniques    []iec61508.Technique
	// Ranking is the head of the criticality ranking, as far as the
	// report lists it.
	Ranking []fmea.ZoneRank
	// DRC is the pre-flight's outcome (nil when Options.SkipDRC).
	DRC *DRCEvidence
	// Campaign is the validation's outcome (nil without
	// Options.RunValidation).
	Campaign *CampaignEvidence
}

// rankingShown is how many zones the report's criticality table lists.
const rankingShown = 10

// DRCEvidence is the part of a drc.Result the report prints.
type DRCEvidence struct {
	Summary string
	// Errors holds one rendered line per error-level finding; the
	// pre-flight is clean when it is empty.
	Errors []string
}

// CampaignEvidence is what the validation campaigns measured.
type CampaignEvidence struct {
	Complete      bool
	InactiveZones []string
	// Experiments counts the zone campaign's experiments with a verdict.
	Experiments int
	Coverage    inject.Coverage
	Quarantined int
	AbortedExps int
	// Rows are the per-zone estimate-vs-measurement deltas. Their
	// Within is Grade's: it stays false here.
	Rows      []inject.ValidationRow
	EffectsOK bool
	ToggleRaw float64
	ToggleAdj float64
	ToggleOK  bool
	// Wide reports whether the wide/global campaign ran; WideRun and
	// WideMulti count its experiments and those with multi-point
	// effects.
	Wide      bool
	WideRun   int
	WideMulti int
}

// degraded reports experiments without a verdict (see
// Validation.Degraded).
func (c *CampaignEvidence) degraded() bool { return c.Quarantined > 0 || c.AbortedExps > 0 }

// DRCClean reports whether the pre-flight ran and found no error-level
// violations (vacuously true when skipped).
func (as *Assessment) DRCClean() bool {
	d := as.evidence().DRC
	return d == nil || len(d.Errors) == 0
}

// CampaignHealthy reports whether the validation campaign (when run)
// delivered a verdict on every planned experiment. A degraded campaign
// makes the assessment CONDITIONAL, like an unclean DRC pre-flight.
func (as *Assessment) CampaignHealthy() bool {
	return as.Validation == nil || !as.Validation.Degraded
}

// Run executes the flow over a DUT: Grade(Assess(dut, opts), opts).
// When Options.Ctx is set and is cancelled mid-flight, Run returns an
// error wrapping the context's error (context.Canceled /
// DeadlineExceeded) and never a partial assessment.
func Run(dut DUT, opts Options) (*Assessment, error) {
	as, err := Assess(dut, opts)
	if err != nil {
		return nil, err
	}
	return Grade(as, opts), nil
}

// Assess runs the measuring half of the flow: zones, worksheet, DRC,
// golden run, plans, both campaigns, the per-zone deltas, effects and
// toggle coverage. It reads none of TargetSIL, HFT and Tolerance, and
// its result is ungraded: SIL, TargetMet, the rows' Within and
// PassFraction are left for Grade. Cancellation behaves as in Run.
func Assess(dut DUT, opts Options) (*Assessment, error) {
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
	as := &Assessment{
		Name:        dut.DesignName(),
		Analysis:    a,
		Worksheet:   w,
		Metrics:     w.Totals(),
		Sensitivity: w.SpanAssumptions(opts.Span),
	}
	if !opts.SkipDRC {
		tel.Phase("drc-preflight")
		as.DRC, err = drc.Run(drc.Input{
			Netlist: a.N, Analysis: a, Worksheet: w, Rates: &opts.Rates,
		}, opts.DRC)
		if err != nil {
			return nil, fmt.Errorf("core: DRC pre-flight: %w", err)
		}
	}
	if opts.RunValidation {
		if as.Validation, err = validate(dut, a, w, opts, canceled); err != nil {
			return nil, ctxErr(ctx, err)
		}
	}
	as.Evidence = evidenceOf(as)
	return as, nil
}

// validate is Assess's fault-injection half.
func validate(dut DUT, a *zones.Analysis, w *fmea.Worksheet, opts Options, canceled func(string) error) (*Validation, error) {
	tel := opts.Telemetry
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
		return nil, fmt.Errorf("core: golden run: %w", err)
	}
	v := &Validation{}
	var inactive []int
	v.Complete, inactive = golden.CompletenessOK()
	for _, zi := range inactive {
		v.InactiveZones = append(v.InactiveZones, a.Zones[zi].Name)
	}
	tel.Phase("plan")
	plan := inject.BuildPlan(a, golden, opts.Plan)
	var widePlan []inject.Injection
	if opts.WideFaults > 0 {
		widePlan = inject.WidePlan(a, golden, opts.WideFaults, opts.Plan.Seed+1)
	}
	if err := canceled("injection campaign"); err != nil {
		return nil, err
	}
	tel.Phase("zone-campaign")
	v.Report, err = target.Run(golden, plan)
	if err != nil {
		return nil, fmt.Errorf("core: injection campaign: %w", err)
	}
	if opts.WideFaults > 0 {
		if err := canceled("wide/global campaign"); err != nil {
			return nil, err
		}
		tel.Phase("wide-campaign")
		v.WideReport, err = target.Run(golden, widePlan)
		if err != nil {
			return nil, fmt.Errorf("core: wide/global campaign: %w", err)
		}
	}
	tel.Phase("analyze")
	for _, rep := range []*inject.Report{v.Report, v.WideReport} {
		if rep == nil {
			continue
		}
		v.Quarantined += len(rep.Quarantined)
		v.AbortedExps += rep.AbortedCount()
	}
	v.Degraded = v.Quarantined > 0 || v.AbortedExps > 0
	// The deltas are measured; which of them are within tolerance is
	// Grade's call.
	v.Rows = v.Report.ValidateWorksheet(a, w, 0)
	for i := range v.Rows {
		v.Rows[i].Within = false
	}
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
	return v, nil
}

// Grade grades an assessment's evidence: the SIL its SFF claims at
// opts.HFT, whether that meets opts.TargetSIL, and which zones'
// deltas are within opts.Tolerance — the only options it reads. It
// returns a new assessment and leaves as untouched; the result shares
// as's measured detail and Evidence. Grade reads only as.Evidence when
// it is set, so cached evidence grades as &Assessment{Evidence: ev}.
func Grade(as *Assessment, opts Options) *Assessment {
	ev := as.evidence()
	g := *as
	g.Name, g.Metrics, g.Sensitivity, g.Evidence = ev.Name, ev.Metrics, ev.Sensitivity, ev
	g.SIL = iec61508.MaxSIL(ev.Metrics.SFF(), opts.HFT, true)
	g.TargetSIL = opts.TargetSIL
	g.TargetMet = g.SIL >= opts.TargetSIL
	c := ev.Campaign
	if c == nil {
		g.Validation = nil
		return &g
	}
	rows := append([]inject.ValidationRow(nil), c.Rows...)
	for i := range rows {
		rows[i].Within = rows[i].DeltaS <= opts.Tolerance && rows[i].DeltaDDF <= opts.Tolerance
	}
	v := &Validation{
		Complete: c.Complete, InactiveZones: c.InactiveZones,
		Rows: rows, PassFraction: inject.PassFraction(rows),
		EffectsOK: c.EffectsOK,
		ToggleRaw: c.ToggleRaw, ToggleAdj: c.ToggleAdj, ToggleOK: c.ToggleOK,
		Degraded: c.degraded(), Quarantined: c.Quarantined, AbortedExps: c.AbortedExps,
	}
	if m := as.Validation; m != nil {
		v.Report, v.WideReport, v.Effects = m.Report, m.WideReport, m.Effects
	}
	g.Validation = v
	return &g
}

// evidence returns the assessment's compact evidence, deriving it when
// the assessment was assembled field by field.
func (as *Assessment) evidence() *Evidence {
	if as.Evidence != nil {
		return as.Evidence
	}
	return evidenceOf(as)
}

// evidenceOf cuts an assessment's measured fields down to its
// Evidence.
func evidenceOf(as *Assessment) *Evidence {
	w := as.Worksheet
	ev := &Evidence{
		Name: as.Name, Zones: as.Analysis.Summary(),
		Metrics: as.Metrics, Sensitivity: as.Sensitivity,
		WorksheetRows: len(w.Rows), Techniques: claimedTechniques(w),
	}
	ranking := w.Ranking()
	ev.Ranking = append([]fmea.ZoneRank(nil), ranking[:min(rankingShown, len(ranking))]...)
	if as.DRC != nil {
		ev.DRC = &DRCEvidence{Summary: as.DRC.Summary()}
		for i := range as.DRC.Findings {
			if f := &as.DRC.Findings[i]; f.Severity == drc.Error {
				ev.DRC.Errors = append(ev.DRC.Errors, fmt.Sprintf("[%s] %s: %s", f.Rule, f.Loc, f.Message))
			}
		}
	}
	if v := as.Validation; v != nil {
		c := &CampaignEvidence{
			Complete: v.Complete, InactiveZones: v.InactiveZones,
			Experiments: len(v.Report.Results), Coverage: v.Report.Coverage,
			Quarantined: v.Quarantined, AbortedExps: v.AbortedExps,
			Rows: v.Rows, EffectsOK: v.EffectsOK,
			ToggleRaw: v.ToggleRaw, ToggleAdj: v.ToggleAdj, ToggleOK: v.ToggleOK,
		}
		if v.WideReport != nil {
			c.Wide, c.WideRun, c.WideMulti = true, len(v.WideReport.Results), multiEffect(v.WideReport)
		}
		ev.Campaign = c
	}
	return ev
}

// claimedTechniques lists, in catalogue order, the diagnostic
// techniques the worksheet's rows claim.
func claimedTechniques(w *fmea.Worksheet) []iec61508.Technique {
	claimed := map[iec61508.Technique]bool{}
	for i := range w.Rows {
		for _, tq := range []iec61508.Technique{w.Rows[i].TechHW, w.Rows[i].TechSW} {
			if tq != "" && tq != iec61508.TechNone {
				claimed[tq] = true
			}
		}
	}
	var out []iec61508.Technique
	for _, tq := range iec61508.Techniques() {
		if claimed[tq] {
			out = append(out, tq)
		}
	}
	return out
}

// Report renders the assessment as a certification-style text document:
// its evidence under its grade.
func (as *Assessment) Report() string {
	ev := as.evidence()
	var b strings.Builder
	fmt.Fprintf(&b, "=== Safety assessment: %s ===\n\n", ev.Name)
	fmt.Fprintf(&b, "%s\n\n", ev.Zones)

	m := ev.Metrics
	t := report.NewTable("IEC 61508 metrics",
		"λS [FIT]", "λD [FIT]", "λDD [FIT]", "λDU [FIT]", "DC", "SFF", "SIL (HFT0)")
	t.AddRow(m.LambdaS, m.LambdaD, m.LambdaDD, m.LambdaDU, m.DC(), m.SFF(), as.SIL.String())
	b.WriteString(t.Render())
	pfh := iec61508.PFH(m.LambdaDU)
	fmt.Fprintf(&b, "\nContinuous-mode PFH from λDU: %.3g /h (grades %v by the PFH table)\n",
		pfh, iec61508.SILFromPFH(pfh))
	fmt.Fprintf(&b, "Target %v: %s\n", as.TargetSIL, verdict(as.TargetMet))
	sens := ev.Sensitivity
	fmt.Fprintf(&b, "Sensitivity: SFF in [%.4f, %.4f] (spread %.4f) across %d spans\n",
		sens.MinSFF, sens.MaxSFF, sens.Spread(), len(sens.Cases))

	if d := ev.DRC; d != nil {
		fmt.Fprintf(&b, "\n--- Static DRC pre-flight ---\n")
		fmt.Fprintf(&b, "findings: %s: %s\n", d.Summary, verdict(len(d.Errors) == 0))
		if len(d.Errors) > 0 {
			fmt.Fprintf(&b, "!! the SIL grade above is CONDITIONAL: the design triple has error-level DRC violations\n")
			for _, line := range d.Errors {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
	}

	rt := report.NewTable("\nTop criticality ranking (by λDU)", "#", "zone", "λDU [FIT]", "share")
	for i, zr := range ev.Ranking {
		rt.AddRow(i+1, zr.ZoneName, zr.Metrics.LambdaDU, report.Pct(zr.ShareDU))
	}
	b.WriteString(rt.Render())

	if c := ev.Campaign; c != nil {
		fmt.Fprintf(&b, "\n--- Validation (fault injection) ---\n")
		fmt.Fprintf(&b, "workload completeness: %s", verdict(c.Complete))
		if len(c.InactiveZones) > 0 {
			fmt.Fprintf(&b, " (untriggered: %v)", c.InactiveZones)
		}
		b.WriteByte('\n')
		cov := c.Coverage
		fmt.Fprintf(&b, "campaign coverage: SENS %s, OBSE %s, DIAG %s, %d mismatches\n",
			report.Pct(cov.SensFrac()), report.Pct(cov.ObseFrac()), report.Pct(cov.DiagFrac()), cov.Mismatches)
		if c.degraded() {
			fmt.Fprintf(&b, "!! degraded campaign: %d quarantined, %d watchdog-aborted experiment(s) —\n", c.Quarantined, c.AbortedExps)
			fmt.Fprintf(&b, "!! affected rows counted as dangerous undetected; the SIL grade above is CONDITIONAL\n")
		}
		pass := as.Validation.PassFraction
		fmt.Fprintf(&b, "estimate cross-check: %s of zones within tolerance: %s\n",
			report.Pct(pass), verdict(pass >= 0.9))
		fmt.Fprintf(&b, "effects tables consistent with main/secondary analysis: %s\n", verdict(c.EffectsOK))
		fmt.Fprintf(&b, "workload toggle efficiency: raw %s, adjusted %s: %s\n",
			report.Pct(c.ToggleRaw), report.Pct(c.ToggleAdj), verdict(c.ToggleOK))
		if c.Wide {
			fmt.Fprintf(&b, "wide/global experiments: %d run, %d with multi-point effects\n", c.WideRun, c.WideMulti)
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
