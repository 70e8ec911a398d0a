package drc

import (
	"fmt"
	"math"

	"repro/internal/fmea"
	"repro/internal/iec61508"
	"repro/internal/zones"
)

func init() {
	register(Rule{
		ID: "DRC-W001", Severity: Error, Layer: LayerWorksheet,
		Title: "DDF claim above the IEC 61508 technique maximum",
		check: checkOverclaimedDDF,
	})
	register(Rule{
		ID: "DRC-W002", Severity: Error, Layer: LayerWorksheet,
		Title: "worksheet factor out of range",
		check: checkRowRanges,
	})
	register(Rule{
		ID: "DRC-W003", Severity: Error, Layer: LayerWorksheet,
		NeedsZones: true, NeedsRates: true,
		Title: "FIT not conserved against the netlist composition",
		check: checkFITConservation,
	})
	register(Rule{
		ID: "DRC-W004", Severity: Error, Layer: LayerWorksheet,
		NeedsZones: true,
		Title:      "worksheet / zone cross-reference broken",
		check:      checkZoneCrossRefs,
	})
	register(Rule{
		ID: "DRC-W005", Severity: Error, Layer: LayerWorksheet,
		Title: "λ columns do not sum (λD ≠ λDD + λDU)",
		check: checkLambdaArithmetic,
	})
}

const claimEps = 1e-9

// checkOverclaimedDDF flags detected-dangerous-fraction claims above
// the maximum diagnostic coverage IEC 61508 grants the named technique
// (Annex A tables A.2–A.13). AddRow clamps claims on entry, so a
// violation means the worksheet was assembled outside the API or the
// technique was renamed after the claim was set.
func checkOverclaimedDDF(c *ctx) {
	w := c.in.Worksheet
	for ri := range w.Rows {
		r := &w.Rows[ri]
		type claim struct {
			label string
			v     float64
			tech  iec61508.Technique
		}
		claims := []claim{
			{"HW transient", r.DDF.HWTransient, r.TechHW},
			{"HW permanent", r.DDF.HWPermanent, r.TechHW},
			{"SW transient", r.DDF.SWTransient, r.TechSW},
			{"SW permanent", r.DDF.SWPermanent, r.TechSW},
		}
		for _, cl := range claims {
			max := iec61508.MaxDC(cl.tech)
			if cl.v <= max+claimEps {
				continue
			}
			techName := string(cl.tech)
			if techName == "" || cl.tech == iec61508.TechNone {
				techName = "no technique"
			}
			c.report(Loc{Zone: r.ZoneName, Row: ri + 1},
				fmt.Sprintf("%s DDF claim %.3f exceeds the norm maximum %.2f for %s",
					cl.label, cl.v, max, techName),
				"claim at most the Annex A maximum, or cite a technique of a higher DC level")
		}
	}
}

// checkRowRanges flags factors outside their domains: S and ζ are
// fractions in [0,1], λ components are non-negative rates.
func checkRowRanges(c *ctx) {
	w := c.in.Worksheet
	for ri := range w.Rows {
		r := &w.Rows[ri]
		loc := Loc{Zone: r.ZoneName, Row: ri + 1}
		if r.S < 0 || r.S > 1 || math.IsNaN(r.S) {
			c.report(loc, fmt.Sprintf("S factor %.3f outside [0,1]", r.S), "")
		}
		if r.Lifetime < 0 || r.Lifetime > 1 || math.IsNaN(r.Lifetime) {
			c.report(loc, fmt.Sprintf("lifetime ζ %.3f outside [0,1]", r.Lifetime), "")
		}
		if r.Lambda.Transient < 0 || math.IsNaN(r.Lambda.Transient) {
			c.report(loc, fmt.Sprintf("negative transient λ %.4g FIT", r.Lambda.Transient), "")
		}
		if r.Lambda.Permanent < 0 || math.IsNaN(r.Lambda.Permanent) {
			c.report(loc, fmt.Sprintf("negative permanent λ %.4g FIT", r.Lambda.Permanent), "")
		}
	}
}

// checkFITConservation recomputes, from the zone analysis and the
// elementary rates, the FIT the netlist composition assigns to register,
// output, input and critical-net zones (the same ownership-weighted
// arithmetic the worksheet builder uses) and compares it against the
// worksheet's actual λ total over those zones. A deficit beyond the
// tolerance means rows were dropped or rates zeroed — the SoC-level λS/
// λD totals under-count the silicon. Peripheral zones are excluded:
// their rates come from component models (memory arrays), not the gate
// count.
func checkFITConservation(c *ctx) {
	a := c.in.Analysis
	w := c.in.Worksheet
	rates := *c.in.Rates
	eff := fmea.OwnershipWeights(a)

	expected := 0.0
	for zi := range a.Zones {
		z := &a.Zones[zi]
		switch z.Kind {
		case zones.Register:
			ff := float64(len(z.FFs))
			expected += ff*(rates.FFTransient+rates.FFPermanent) +
				eff[zi]*(rates.GateTransient*rates.LatchingFraction+rates.GatePermanent)
		case zones.Output:
			expected += eff[zi] * (rates.GateTransient*rates.LatchingFraction + rates.GatePermanent)
		case zones.Input:
			expected += float64(len(z.Outputs)) * rates.GatePermanent
		case zones.CriticalNet:
			expected += rates.GateTransient*rates.LatchingFraction + rates.GatePermanent
		}
	}
	counted := func(zi int) bool {
		if zi < 0 || zi >= len(a.Zones) {
			return false
		}
		switch a.Zones[zi].Kind {
		case zones.Register, zones.Output, zones.Input, zones.CriticalNet:
			return true
		}
		return false
	}
	actual := 0.0
	for ri := range w.Rows {
		if counted(w.Rows[ri].Zone) {
			actual += w.Rows[ri].Lambda.Total()
		}
	}
	if expected <= 0 {
		return
	}
	rel := (actual - expected) / expected
	switch {
	case rel < -c.cfg.FITTolerance:
		c.report(Loc{},
			fmt.Sprintf("worksheet λ total %.4g FIT is %.1f%% below the netlist composition %.4g FIT: FIT lost",
				actual, -100*rel, expected),
			"a zone was dropped or its rates zeroed; every owned gate and FF must reach a row")
	case rel > c.cfg.FITTolerance:
		c.reportSev(Info, Loc{},
			fmt.Sprintf("worksheet λ total %.4g FIT is %.1f%% above the netlist composition %.4g FIT",
				actual, 100*rel, expected),
			"over-accounting is conservative but distorts the criticality ranking")
	}
}

// checkZoneCrossRefs flags rows referencing zones that do not exist (or
// whose name drifted from the analysis), and owning zones with FIT that
// have no row at all.
func checkZoneCrossRefs(c *ctx) {
	a := c.in.Analysis
	w := c.in.Worksheet
	hasRow := make([]bool, len(a.Zones))
	for ri := range w.Rows {
		r := &w.Rows[ri]
		if r.Zone < 0 || r.Zone >= len(a.Zones) {
			c.report(Loc{Zone: r.ZoneName, Row: ri + 1},
				fmt.Sprintf("row references zone %d, but the analysis has %d zones", r.Zone, len(a.Zones)),
				"rebuild the worksheet from the current zone analysis")
			continue
		}
		hasRow[r.Zone] = true
		if r.ZoneName != a.Zones[r.Zone].Name {
			c.report(Loc{Zone: r.ZoneName, Row: ri + 1},
				fmt.Sprintf("row names zone %q but zone %d is %q in the analysis", r.ZoneName, r.Zone, a.Zones[r.Zone].Name),
				"zone IDs shifted since the worksheet was built; rebuild it")
		}
	}
	for zi := range a.Zones {
		z := &a.Zones[zi]
		if hasRow[zi] || !owningKind(z.Kind) {
			continue
		}
		// A rowless owning zone only matters if it actually owns FIT.
		if z.Kind != zones.Peripheral && len(z.FFs) == 0 && len(a.Cones[zi].Gates) == 0 {
			continue
		}
		c.reportSev(Warning, Loc{Zone: z.Name},
			fmt.Sprintf("%s zone %q owns FIT but has no worksheet row", z.Kind, z.Name),
			"an override returned an empty spec set; the zone's failure rate is unaccounted")
	}
}

// checkLambdaArithmetic verifies the λ-column identities on every row
// and on the totals: λDD ≤ λD, λDU = λD − λDD ≥ 0, and SFF ∈ [0,1].
// The identities hold by construction for rows built through AddRow;
// a violation means claims above 1 or negative rates slipped in through
// direct assembly.
func checkLambdaArithmetic(c *ctx) {
	w := c.in.Worksheet
	const eps = 1e-9
	for ri := range w.Rows {
		r := &w.Rows[ri]
		m := r.RowMetrics()
		loc := Loc{Zone: r.ZoneName, Row: ri + 1}
		if m.LambdaDD > m.LambdaD*(1+1e-12)+eps {
			c.report(loc,
				fmt.Sprintf("λDD %.4g exceeds λD %.4g: detected more dangerous failures than exist", m.LambdaDD, m.LambdaD),
				"a DDF claim above 1 slipped past clamping")
		}
		if m.LambdaDU < -eps {
			c.report(loc, fmt.Sprintf("λDU %.4g is negative", m.LambdaDU), "")
		}
		if m.LambdaS < -eps {
			c.report(loc, fmt.Sprintf("λS %.4g is negative", m.LambdaS), "")
		}
	}
	tot := w.Totals()
	if sff := tot.SFF(); math.IsNaN(sff) || sff < 0 || sff > 1+eps {
		c.report(Loc{},
			fmt.Sprintf("SoC-level SFF %.4g outside [0,1]: the λ columns are inconsistent", sff),
			"")
	}
}
