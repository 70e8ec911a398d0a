// Package fmea implements the paper's FMEA "spreadsheet" (Sections 3–4):
// one row per sensible zone × failure mode carrying the elementary
// failure rate, the safe/dangerous split (S and D factors), the usage
// frequency class F, the lifetime ζ, and the claimed detected-dangerous
// fractions (DDF, split HW/SW × transient/permanent and clamped to the
// maximum diagnostic coverage IEC 61508 grants the claiming technique).
//
// From the rows it computes the norm's metrics —
//
//	DC  = λDD / λD
//	SFF = (λS + λDD) / (λS + λD)
//
// — per zone and for the whole SoC, a criticality ranking by undetected
// dangerous rate, and the sensitivity spans of Section 4.
package fmea

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fit"
	"repro/internal/iec61508"
)

// FreqClass is the usage-frequency class F of a sensible zone.
type FreqClass uint8

// Frequency classes: F1 zones are active essentially always, F4 rarely.
const (
	F1 FreqClass = iota
	F2
	F3
	F4
)

// Usage returns the activity factor applied to the zone's failure rate.
func (f FreqClass) Usage() float64 {
	switch f {
	case F1:
		return 1.0
	case F2:
		return 0.7
	case F3:
		return 0.4
	default:
		return 0.1
	}
}

func (f FreqClass) String() string {
	return fmt.Sprintf("F%d", int(f)+1)
}

// DDF is the claimed Detected Dangerous Failure fraction, split by
// detecting technique class (hardware/software) and fault persistence.
type DDF struct {
	HWTransient float64
	HWPermanent float64
	SWTransient float64
	SWPermanent float64
}

// combine merges independent HW and SW coverage: 1-(1-hw)(1-sw).
func combine(hw, sw float64) float64 {
	return 1 - (1-hw)*(1-sw)
}

// Spec is the user-provided content of one worksheet row.
type Spec struct {
	Mode   iec61508.FailureMode
	Lambda fit.Contribution // elementary FIT for this row
	// S is the safe fraction of this row's failures (architectural ×
	// applicational S factor); D = 1-S is the dangerous fraction.
	S float64
	// Freq is the zone's usage-frequency class.
	Freq FreqClass
	// Lifetime ζ in [0,1]: fraction of the usage window during which a
	// corrupted stored value is still consumed (exposure of transients).
	Lifetime float64
	// DDF claims and the techniques backing them; claims are clamped to
	// the norm's maximum DC for the technique.
	DDF    DDF
	TechHW iec61508.Technique
	TechSW iec61508.Technique
	Note   string
}

// Row is one materialized worksheet line.
type Row struct {
	Zone     int
	ZoneName string
	Spec
}

// clampDDF enforces the norm's maximum claims per technique.
func clampDDF(d DDF, hw, sw iec61508.Technique) DDF {
	d.HWTransient = iec61508.ClampClaim(hw, d.HWTransient)
	d.HWPermanent = iec61508.ClampClaim(hw, d.HWPermanent)
	d.SWTransient = iec61508.ClampClaim(sw, d.SWTransient)
	d.SWPermanent = iec61508.ClampClaim(sw, d.SWPermanent)
	return d
}

// Metrics are the IEC 61508 quantities for a row set.
type Metrics struct {
	LambdaS  float64 // safe failure rate
	LambdaD  float64 // dangerous failure rate
	LambdaDD float64 // dangerous detected
	LambdaDU float64 // dangerous undetected
}

// DC is the diagnostic coverage λDD/λD (1 when λD is zero).
func (m Metrics) DC() float64 {
	if m.LambdaD == 0 {
		return 1
	}
	return m.LambdaDD / m.LambdaD
}

// SFF is the safe failure fraction (λS+λDD)/(λS+λD) (1 when no failures).
func (m Metrics) SFF() float64 {
	den := m.LambdaS + m.LambdaD
	if den == 0 {
		return 1
	}
	return (m.LambdaS + m.LambdaDD) / den
}

// Total is λS + λD, the overall failure rate.
func (m Metrics) Total() float64 { return m.LambdaS + m.LambdaD }

func (m Metrics) add(o Metrics) Metrics {
	return Metrics{
		m.LambdaS + o.LambdaS, m.LambdaD + o.LambdaD,
		m.LambdaDD + o.LambdaDD, m.LambdaDU + o.LambdaDU,
	}
}

// Worksheet is the FMEA spreadsheet for one design.
type Worksheet struct {
	Design string
	Rows   []Row
}

// New creates an empty worksheet.
func New(design string) *Worksheet {
	return &Worksheet{Design: design}
}

// AddRow appends a row for the given zone; the DDF claims are clamped to
// the techniques' norm maxima and S/ζ to [0,1].
func (w *Worksheet) AddRow(zone int, zoneName string, spec Spec) {
	spec.S = clamp01(spec.S)
	spec.Lifetime = clamp01(spec.Lifetime)
	spec.DDF = clampDDF(spec.DDF, spec.TechHW, spec.TechSW)
	w.Rows = append(w.Rows, Row{Zone: zone, ZoneName: zoneName, Spec: spec})
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// RowMetrics evaluates one row.
func (r Row) RowMetrics() Metrics {
	usage := r.Freq.Usage()
	transEff := r.Lambda.Transient * usage * r.Lifetime
	permEff := r.Lambda.Permanent * usage
	d := 1 - r.S
	dTrans := transEff * d
	dPerm := permEff * d
	dcT := combine(r.DDF.HWTransient, r.DDF.SWTransient)
	dcP := combine(r.DDF.HWPermanent, r.DDF.SWPermanent)
	m := Metrics{
		LambdaS:  (transEff + permEff) * r.S,
		LambdaD:  dTrans + dPerm,
		LambdaDD: dTrans*dcT + dPerm*dcP,
	}
	m.LambdaDU = m.LambdaD - m.LambdaDD
	return m
}

// Totals aggregates all rows — the SoC-level metrics.
func (w *Worksheet) Totals() Metrics {
	var m Metrics
	for i := range w.Rows {
		m = m.add(w.Rows[i].RowMetrics())
	}
	return m
}

// ZoneMetrics aggregates the rows of one zone.
func (w *Worksheet) ZoneMetrics(zone int) Metrics {
	var m Metrics
	for i := range w.Rows {
		if w.Rows[i].Zone == zone {
			m = m.add(w.Rows[i].RowMetrics())
		}
	}
	return m
}

// SIL grades the worksheet's SFF for a Type B component at the given
// hardware fault tolerance.
func (w *Worksheet) SIL(hft int) iec61508.SIL {
	return iec61508.MaxSIL(w.Totals().SFF(), hft, true)
}

// ZoneRank is one entry of the criticality ranking.
type ZoneRank struct {
	Zone     int
	ZoneName string
	Metrics  Metrics
	// ShareDU is the zone's share of the SoC's undetected dangerous rate.
	ShareDU float64
}

// Ranking orders zones by undetected dangerous failure rate (the paper's
// "ranking of sensible zones in terms of their criticality").
func (w *Worksheet) Ranking() []ZoneRank {
	byZone := map[int]*ZoneRank{}
	var order []int
	for i := range w.Rows {
		r := &w.Rows[i]
		zr, ok := byZone[r.Zone]
		if !ok {
			zr = &ZoneRank{Zone: r.Zone, ZoneName: r.ZoneName}
			byZone[r.Zone] = zr
			order = append(order, r.Zone)
		}
		zr.Metrics = zr.Metrics.add(r.RowMetrics())
	}
	totDU := 0.0
	for _, z := range order {
		totDU += byZone[z].Metrics.LambdaDU
	}
	out := make([]ZoneRank, 0, len(order))
	for _, z := range order {
		zr := *byZone[z]
		if totDU > 0 {
			zr.ShareDU = zr.Metrics.LambdaDU / totDU
		}
		out = append(out, zr)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Metrics.LambdaDU != out[j].Metrics.LambdaDU {
			return out[i].Metrics.LambdaDU > out[j].Metrics.LambdaDU
		}
		return out[i].ZoneName < out[j].ZoneName
	})
	return out
}

// Clone deep-copies the worksheet (for sensitivity transforms).
func (w *Worksheet) Clone() *Worksheet {
	out := &Worksheet{Design: w.Design, Rows: make([]Row, len(w.Rows))}
	copy(out.Rows, w.Rows)
	return out
}

// ScaleLambda returns a copy with transient/permanent rates scaled.
func (w *Worksheet) ScaleLambda(transF, permF float64) *Worksheet {
	out := w.Clone()
	for i := range out.Rows {
		out.Rows[i].Lambda.Transient *= transF
		out.Rows[i].Lambda.Permanent *= permF
	}
	return out
}

// ScaleS returns a copy with every S factor scaled (clamped to [0,1]).
func (w *Worksheet) ScaleS(f float64) *Worksheet {
	out := w.Clone()
	for i := range out.Rows {
		out.Rows[i].S = clamp01(out.Rows[i].S * f)
	}
	return out
}

// ShiftFreq returns a copy with every frequency class shifted by delta
// classes (positive = less frequently used), clamped to [F1, F4].
func (w *Worksheet) ShiftFreq(delta int) *Worksheet {
	out := w.Clone()
	for i := range out.Rows {
		f := int(out.Rows[i].Freq) + delta
		if f < 0 {
			f = 0
		}
		if f > int(F4) {
			f = int(F4)
		}
		out.Rows[i].Freq = FreqClass(f)
	}
	return out
}

// Sensitivity spans the worksheet's assumptions per Section 4 and
// reports the SFF excursion.
type Sensitivity struct {
	BaseSFF float64
	MinSFF  float64
	MaxSFF  float64
	// Cases lists each perturbation and the SFF it produced.
	Cases []SensCase
}

// SensCase is one perturbation result.
type SensCase struct {
	Name string
	SFF  float64
}

// Spread is MaxSFF - MinSFF: the stability measure the paper quotes for
// the final implementation ("very stable as well").
func (s Sensitivity) Spread() float64 { return s.MaxSFF - s.MinSFF }

// SpanAssumptions evaluates the standard sensitivity battery of
// Section 4 — "span the values of the assumptions (such the elementary
// failure rates for transient and permanent faults or the user
// assumptions such S, D and F)": base rates ×/÷ span, S factors ±20 %,
// frequency classes ±1. Diagnostic-coverage claims are norm-given
// maxima, not assumptions, and are not spanned.
func (w *Worksheet) SpanAssumptions(span float64) Sensitivity {
	if span <= 1 {
		span = 2
	}
	base := w.Totals().SFF()
	s := Sensitivity{BaseSFF: base, MinSFF: base, MaxSFF: base}
	add := func(name string, v *Worksheet) {
		sff := v.Totals().SFF()
		s.Cases = append(s.Cases, SensCase{Name: name, SFF: sff})
		s.MinSFF = math.Min(s.MinSFF, sff)
		s.MaxSFF = math.Max(s.MaxSFF, sff)
	}
	add(fmt.Sprintf("transient x%.3g", span), w.ScaleLambda(span, 1))
	add(fmt.Sprintf("transient /%.3g", span), w.ScaleLambda(1/span, 1))
	add(fmt.Sprintf("permanent x%.3g", span), w.ScaleLambda(1, span))
	add(fmt.Sprintf("permanent /%.3g", span), w.ScaleLambda(1, 1/span))
	add("S x0.8", w.ScaleS(0.8))
	add("S x1.2", w.ScaleS(1.2))
	add("freq +1 class", w.ShiftFreq(1))
	add("freq -1 class", w.ShiftFreq(-1))
	return s
}
