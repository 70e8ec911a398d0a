package core

import (
	"fmt"
	"strings"

	"repro/internal/iec61508"
	"repro/internal/report"
)

// SRS renders the Safety Requirements Specification extract IEC 61508
// asks for (Section 2 of the paper: "the release of a Safety
// Requirements Specification (SRS) including a detailed FMEA of the
// system or sub-system"): the safety function, its integrity target,
// the failure-mode analysis summary, the claimed diagnostic techniques
// with their norm-granted maxima, and the validation evidence.
func (as *Assessment) SRS() string {
	ev := as.evidence()
	var b strings.Builder
	m := ev.Metrics

	fmt.Fprintf(&b, "SAFETY REQUIREMENTS SPECIFICATION (extract) — %s\n", ev.Name)
	fmt.Fprintf(&b, "%s\n\n", strings.Repeat("=", 60))

	fmt.Fprintf(&b, "1. SAFETY FUNCTION\n")
	fmt.Fprintf(&b, "   Deliver uncorrupted data words to the safety application and\n")
	fmt.Fprintf(&b, "   annunciate any dangerous memory-subsystem failure via the alarm\n")
	fmt.Fprintf(&b, "   interface within one access cycle.\n\n")

	fmt.Fprintf(&b, "2. SAFETY INTEGRITY TARGET\n")
	fmt.Fprintf(&b, "   Target: %v at hardware fault tolerance %d (type B component).\n",
		as.TargetSIL, 0)
	band, achievable := iec61508.RequiredSFF(as.TargetSIL, 0)
	if achievable {
		fmt.Fprintf(&b, "   Required safe failure fraction band: %v (>= %.2f).\n\n",
			band, band.MinSFFValue())
	}

	fmt.Fprintf(&b, "3. FAILURE MODES AND EFFECTS ANALYSIS\n")
	fmt.Fprintf(&b, "   %s\n", ev.Zones)
	fmt.Fprintf(&b, "   Worksheet rows: %d (zone x failure mode, per IEC 61508-2 Annex A\n", ev.WorksheetRows)
	fmt.Fprintf(&b, "   catalogs for variable memories and digital logic).\n")
	fmt.Fprintf(&b, "   Totals: λS=%.4f, λD=%.4f, λDD=%.4f, λDU=%.4f FIT\n",
		m.LambdaS, m.LambdaD, m.LambdaDD, m.LambdaDU)
	fmt.Fprintf(&b, "   DC=%s  SFF=%s  ->  claimable %v\n\n",
		report.Pct(m.DC()), report.Pct(m.SFF()), as.SIL)

	fmt.Fprintf(&b, "4. CLAIMED DIAGNOSTIC TECHNIQUES (with norm maxima)\n")
	for _, tq := range ev.Techniques {
		lvl, _ := iec61508.DCLevelOf(tq)
		fmt.Fprintf(&b, "   - %-45s max DC %s (%s)\n", tq, report.Pct(iec61508.MaxDC(tq)), lvl)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "5. MOST CRITICAL ELEMENTS (by undetected dangerous rate)\n")
	for i, zr := range ev.Ranking {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "   %d. %-30s λDU=%.4f FIT\n", i+1, zr.ZoneName, zr.Metrics.LambdaDU)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "6. ASSUMPTION SENSITIVITY\n")
	fmt.Fprintf(&b, "   SFF remains within [%s, %s] across the Section 4 span battery\n",
		report.Pct(ev.Sensitivity.MinSFF), report.Pct(ev.Sensitivity.MaxSFF))
	fmt.Fprintf(&b, "   (elementary rates x/÷2, S ±20%%, frequency classes ±1).\n\n")

	fmt.Fprintf(&b, "7. VALIDATION EVIDENCE\n")
	if c := ev.Campaign; c != nil {
		fmt.Fprintf(&b, "   - workload completeness: %s\n", verdict(c.Complete))
		fmt.Fprintf(&b, "   - injection campaign: %d zone-failure experiments, coverage items\n",
			c.Experiments)
		fmt.Fprintf(&b, "     SENS %s / OBSE %s / DIAG %s\n",
			report.Pct(c.Coverage.SensFrac()),
			report.Pct(c.Coverage.ObseFrac()),
			report.Pct(c.Coverage.DiagFrac()))
		fmt.Fprintf(&b, "   - estimate cross-check: %s of zones in line (one-sided)\n",
			report.Pct(as.Validation.PassFraction))
		fmt.Fprintf(&b, "   - effects tables consistent: %s\n", verdict(c.EffectsOK))
		fmt.Fprintf(&b, "   - workload toggle efficiency: %s (adjusted)\n", report.Pct(c.ToggleAdj))
	} else {
		fmt.Fprintf(&b, "   - analytical only; fault-injection validation not yet run\n")
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "8. VERDICT\n")
	fmt.Fprintf(&b, "   %v claimed vs %v target: %s\n", as.SIL, as.TargetSIL, verdict(as.TargetMet))
	return b.String()
}
