package memsys

import (
	"testing"

	"repro/internal/fit"
	"repro/internal/inject"
)

// runCampaign executes a reduced injection campaign and returns the
// aggregate measured detected-dangerous fraction over all zones.
func runCampaign(t *testing.T, cfg Config) (*inject.Report, float64, *Design) {
	t.Helper()
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	target := d.InjectionTargetSeeded(a, nil)
	tr := d.ValidationWorkload(4, 11)
	g, err := target.RunGolden(tr)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := inject.DefaultPlanConfig()
	pcfg.TransientPerZone = 1
	pcfg.PermanentPerZone = 1
	plan := inject.BuildPlan(a, g, pcfg)
	rep, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	det, dang := 0, 0
	for _, zm := range rep.ZoneMeasures(a) {
		det += zm.DangerDet
		dang += zm.DangerDet + zm.DangerUndet
	}
	ddf := 1.0
	if dang > 0 {
		ddf = float64(det) / float64(dang)
	}
	return rep, ddf, d
}

// TestCampaignV2BeatsV1 is the unit-scale E6: the measured detected-
// dangerous fraction of the v2 implementation exceeds v1's.
func TestCampaignV2BeatsV1(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign is slow")
	}
	_, ddf1, _ := runCampaign(t, smallV1())
	rep2, ddf2, d2 := runCampaign(t, smallV2())
	if ddf2 <= ddf1 {
		t.Errorf("measured DDF: v2 %.3f <= v1 %.3f", ddf2, ddf1)
	}
	t.Logf("measured DDF: v1 %.3f, v2 %.3f", ddf1, ddf2)

	// Campaign coverage: every zone perturbed, observation and
	// diagnostic items exercised (Fig. 4 completeness).
	cov := rep2.Coverage
	if cov.SensFrac() < 0.85 {
		t.Errorf("SENS coverage = %.3f", cov.SensFrac())
	}
	if cov.ObseFrac() < 1 {
		t.Errorf("OBSE coverage = %.3f", cov.ObseFrac())
	}
	if cov.DiagFrac() < 0.8 {
		t.Errorf("DIAG coverage = %.3f", cov.DiagFrac())
	}
	_ = d2
}

// TestToggleCoverageOfValidationWorkload is the unit-scale E7: the
// shipped workload exercises ≥95 % of the nets even at reduced size.
func TestToggleCoverageOfValidationWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("toggle measurement is slow")
	}
	cfg := smallV2()
	cfg.AddrWidth = 6 // room for the per-bit seeded defects
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	target := d.InjectionTargetSeeded(a, d.SeedFaults())
	tr := d.CoverageWorkload(3)
	rep, err := target.ToggleCoverage(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage() < 0.95 {
		var names []string
		for i, id := range rep.Untoggled {
			if i >= 25 {
				break
			}
			names = append(names, d.N.NetName(id))
		}
		t.Errorf("toggle coverage = %.4f; untoggled sample: %v", rep.Coverage(), names)
	}
}

// TestWorksheetValidationAgainstInjection cross-checks worksheet S/DDF
// estimates with measured values for the best-instrumented zones.
func TestWorksheetValidationAgainstInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign is slow")
	}
	cfg := smallV2()
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	target := d.InjectionTargetSeeded(a, nil)
	tr := d.ValidationWorkload(4, 17)
	g, err := target.RunGolden(tr)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := inject.DefaultPlanConfig()
	pcfg.TransientPerZone = 2
	pcfg.PermanentPerZone = 1
	plan := inject.BuildPlan(a, g, pcfg)
	rep, err := target.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	w := d.Worksheet(a, fit.Default())
	rows := rep.ValidateWorksheet(a, w, 0.5)
	if len(rows) == 0 {
		t.Fatal("no validation rows")
	}
	if frac := inject.PassFraction(rows); frac < 0.5 {
		for _, r := range rows {
			if !r.Within {
				t.Logf("zone %-28s estS=%.2f measS=%.2f estDDF=%.2f measDDF=%.2f", r.Name, r.EstS, r.MeasS, r.EstDDF, r.MeasDDF)
			}
		}
		t.Errorf("only %.0f%% of zones validated within tolerance", 100*frac)
	}
}
