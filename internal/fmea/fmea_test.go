package fmea

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fit"
	"repro/internal/iec61508"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFreqClassUsage(t *testing.T) {
	if F1.Usage() != 1.0 || F4.Usage() != 0.1 {
		t.Error("usage factors wrong")
	}
	if F1.Usage() < F2.Usage() || F2.Usage() < F3.Usage() || F3.Usage() < F4.Usage() {
		t.Error("usage not monotone")
	}
	if F2.String() != "F2" {
		t.Errorf("F2.String() = %q", F2.String())
	}
}

func TestRowMetricsBasic(t *testing.T) {
	// λ = 100 FIT permanent, S=0.4, full usage, DDF perm 0.9 via
	// redundant checker (max 0.99, not clamped).
	r := Row{Spec: Spec{
		Mode:   iec61508.FMStuckAtLogic,
		Lambda: fit.Contribution{Permanent: 100},
		S:      0.4, Freq: F1, Lifetime: 1,
		DDF:    DDF{HWPermanent: 0.9},
		TechHW: iec61508.TechRedundantChecker,
	}}
	m := r.RowMetrics()
	if !near(m.LambdaS, 40, 1e-9) {
		t.Errorf("λS = %v, want 40", m.LambdaS)
	}
	if !near(m.LambdaD, 60, 1e-9) {
		t.Errorf("λD = %v, want 60", m.LambdaD)
	}
	if !near(m.LambdaDD, 54, 1e-9) {
		t.Errorf("λDD = %v, want 54", m.LambdaDD)
	}
	if !near(m.LambdaDU, 6, 1e-9) {
		t.Errorf("λDU = %v, want 6", m.LambdaDU)
	}
	if !near(m.DC(), 0.9, 1e-9) {
		t.Errorf("DC = %v, want 0.9", m.DC())
	}
	if !near(m.SFF(), 0.94, 1e-9) {
		t.Errorf("SFF = %v, want 0.94", m.SFF())
	}
}

func TestLifetimeAndUsageScaleTransients(t *testing.T) {
	base := Spec{
		Mode:   iec61508.FMTransient,
		Lambda: fit.Contribution{Transient: 1000},
		S:      0, Freq: F1, Lifetime: 1,
	}
	full := Row{Spec: base}.RowMetrics().LambdaD
	half := base
	half.Lifetime = 0.5
	if got := (Row{Spec: half}).RowMetrics().LambdaD; !near(got, full/2, 1e-9) {
		t.Errorf("ζ=0.5 λD = %v, want %v", got, full/2)
	}
	rare := base
	rare.Freq = F4
	if got := (Row{Spec: rare}).RowMetrics().LambdaD; !near(got, full*0.1, 1e-9) {
		t.Errorf("F4 λD = %v, want %v", got, full*0.1)
	}
	// Permanent faults are not scaled by lifetime.
	perm := Spec{Mode: iec61508.FMStuckAtLogic, Lambda: fit.Contribution{Permanent: 100}, S: 0, Freq: F1, Lifetime: 0.1}
	if got := (Row{Spec: perm}).RowMetrics().LambdaD; !near(got, 100, 1e-9) {
		t.Errorf("permanent λD = %v, want 100 (ζ must not apply)", got)
	}
}

func TestDDFClampedByTechnique(t *testing.T) {
	w := New("t")
	w.AddRow(0, "z", Spec{
		Mode:   iec61508.FMStuckAtData,
		Lambda: fit.Contribution{Permanent: 100},
		S:      0, Freq: F1, Lifetime: 1,
		DDF:    DDF{HWPermanent: 0.99}, // claims 99% with parity
		TechHW: iec61508.TechParityBit, // max 60%
	})
	if got := w.Rows[0].DDF.HWPermanent; !near(got, 0.60, 1e-9) {
		t.Errorf("parity claim = %v, want clamped to 0.60", got)
	}
	// No technique -> no claim.
	w.AddRow(1, "z2", Spec{
		Mode: iec61508.FMStuckAtData, Lambda: fit.Contribution{Permanent: 1},
		DDF: DDF{HWPermanent: 0.9},
	})
	if w.Rows[1].DDF.HWPermanent != 0 {
		t.Error("claim without technique not zeroed")
	}
}

func TestCombineHWSW(t *testing.T) {
	r := Row{Spec: Spec{
		Mode:   iec61508.FMStuckAtData,
		Lambda: fit.Contribution{Permanent: 100},
		S:      0, Freq: F1, Lifetime: 1,
		DDF:    DDF{HWPermanent: 0.9, SWPermanent: 0.9},
		TechHW: iec61508.TechECCHamming,
		TechSW: iec61508.TechSWStartupTest,
	}}
	m := r.RowMetrics()
	// 1-(1-.9)^2 = .99
	if !near(m.DC(), 0.99, 1e-9) {
		t.Errorf("combined DC = %v, want 0.99", m.DC())
	}
}

func TestTotalsAndSIL(t *testing.T) {
	w := New("soc")
	w.AddRow(0, "a", Spec{Mode: iec61508.FMTransient, Lambda: fit.Contribution{Transient: 1000}, S: 0.5, Freq: F1, Lifetime: 1,
		DDF: DDF{HWTransient: 0.99}, TechHW: iec61508.TechECCHamming})
	w.AddRow(1, "b", Spec{Mode: iec61508.FMStuckAtLogic, Lambda: fit.Contribution{Permanent: 10}, S: 0.5, Freq: F1, Lifetime: 1})
	m := w.Totals()
	// a: λS=500, λD=500, λDD=495; b: λS=5, λD=5, λDD=0.
	if !near(m.LambdaS, 505, 1e-9) || !near(m.LambdaD, 505, 1e-9) || !near(m.LambdaDD, 495, 1e-9) {
		t.Errorf("totals = %+v", m)
	}
	wantSFF := (505.0 + 495.0) / 1010.0
	if !near(m.SFF(), wantSFF, 1e-12) {
		t.Errorf("SFF = %v, want %v", m.SFF(), wantSFF)
	}
	if w.SIL(0) != iec61508.SIL3 {
		t.Errorf("SIL = %v (SFF %v)", w.SIL(0), m.SFF())
	}
	if zm := w.ZoneMetrics(1); !near(zm.LambdaD, 5, 1e-9) {
		t.Errorf("zone 1 metrics = %+v", zm)
	}
}

func TestEmptyMetricsConventions(t *testing.T) {
	var m Metrics
	if m.DC() != 1 || m.SFF() != 1 {
		t.Error("empty metrics should report perfect coverage")
	}
	if m.Total() != 0 {
		t.Error("empty total != 0")
	}
}

func TestRankingOrdersByLambdaDU(t *testing.T) {
	w := New("r")
	w.AddRow(0, "covered", Spec{Mode: iec61508.FMStuckAtData, Lambda: fit.Contribution{Permanent: 1000}, S: 0, Freq: F1, Lifetime: 1,
		DDF: DDF{HWPermanent: 0.99}, TechHW: iec61508.TechECCHamming})
	w.AddRow(1, "naked", Spec{Mode: iec61508.FMStuckAtData, Lambda: fit.Contribution{Permanent: 100}, S: 0, Freq: F1, Lifetime: 1})
	w.AddRow(2, "small", Spec{Mode: iec61508.FMStuckAtData, Lambda: fit.Contribution{Permanent: 1}, S: 0, Freq: F1, Lifetime: 1})
	rank := w.Ranking()
	if len(rank) != 3 {
		t.Fatalf("rank size = %d", len(rank))
	}
	// naked: λDU=100; covered: λDU=10; small: λDU=1.
	if rank[0].ZoneName != "naked" || rank[1].ZoneName != "covered" || rank[2].ZoneName != "small" {
		t.Errorf("ranking = %v, %v, %v", rank[0].ZoneName, rank[1].ZoneName, rank[2].ZoneName)
	}
	sum := 0.0
	for _, zr := range rank {
		sum += zr.ShareDU
	}
	if !near(sum, 1, 1e-9) {
		t.Errorf("ShareDU sums to %v", sum)
	}
}

func TestScaleTransformsDoNotMutateOriginal(t *testing.T) {
	w := New("t")
	w.AddRow(0, "z", Spec{Mode: iec61508.FMTransient, Lambda: fit.Contribution{Transient: 100}, S: 0.5, Freq: F2, Lifetime: 1,
		DDF: DDF{HWTransient: 0.9}, TechHW: iec61508.TechECCHamming})
	orig := w.Totals()
	_ = w.ScaleLambda(2, 3)
	_ = w.ScaleS(0.5)
	_ = w.ShiftFreq(2)
	if got := w.Totals(); got != orig {
		t.Error("transforms mutated the original worksheet")
	}
	if got := w.ScaleLambda(2, 1).Totals().LambdaD; !near(got, 2*orig.LambdaD, 1e-9) {
		t.Errorf("ScaleLambda λD = %v, want %v", got, 2*orig.LambdaD)
	}
	if got := w.ShiftFreq(3).Rows[0].Freq; got != F4 {
		t.Errorf("ShiftFreq clamp = %v", got)
	}
	if got := w.ShiftFreq(-5).Rows[0].Freq; got != F1 {
		t.Errorf("ShiftFreq negative clamp = %v", got)
	}
}

func TestSFFInvariantUnderUniformScale(t *testing.T) {
	w := New("t")
	w.AddRow(0, "a", Spec{Mode: iec61508.FMTransient, Lambda: fit.Contribution{Transient: 300, Permanent: 40}, S: 0.6, Freq: F1, Lifetime: 0.8,
		DDF: DDF{HWTransient: 0.9, HWPermanent: 0.8}, TechHW: iec61508.TechECCHamming})
	w.AddRow(1, "b", Spec{Mode: iec61508.FMStuckAtLogic, Lambda: fit.Contribution{Permanent: 70}, S: 0.3, Freq: F2, Lifetime: 1})
	f := func(scaleRaw uint8) bool {
		scale := 0.1 + float64(scaleRaw)/32.0
		s := w.ScaleLambda(scale, scale)
		return near(s.Totals().SFF(), w.Totals().SFF(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpanAssumptions(t *testing.T) {
	w := New("t")
	w.AddRow(0, "mem", Spec{Mode: iec61508.FMSoftError, Lambda: fit.Contribution{Transient: 1000}, S: 0.2, Freq: F1, Lifetime: 0.7,
		DDF: DDF{HWTransient: 0.99}, TechHW: iec61508.TechECCHamming})
	w.AddRow(1, "logic", Spec{Mode: iec61508.FMStuckAtLogic, Lambda: fit.Contribution{Permanent: 50}, S: 0.5, Freq: F1, Lifetime: 1})
	sens := w.SpanAssumptions(2)
	if sens.BaseSFF <= 0 || sens.BaseSFF > 1 {
		t.Fatalf("base SFF = %v", sens.BaseSFF)
	}
	if sens.MinSFF > sens.BaseSFF || sens.MaxSFF < sens.BaseSFF {
		t.Error("span does not bracket base")
	}
	if len(sens.Cases) != 8 {
		t.Errorf("cases = %d, want 8", len(sens.Cases))
	}
	if sens.Spread() < 0 {
		t.Error("negative spread")
	}
	// A perfectly homogeneous sheet (single row) is insensitive to rate
	// scaling: the only excursions come from the S/DDF/freq cases.
	hom := New("hom")
	hom.AddRow(0, "only", Spec{Mode: iec61508.FMStuckAtLogic, Lambda: fit.Contribution{Permanent: 10}, S: 0.5, Freq: F1, Lifetime: 1})
	hs := hom.SpanAssumptions(2)
	for _, c := range hs.Cases {
		if strings.Contains(c.Name, "transient") || strings.Contains(c.Name, "permanent") {
			if math.Abs(c.SFF-hs.BaseSFF) > 1e-12 {
				t.Errorf("homogeneous sheet moved under rate scaling: %v", c)
			}
		}
	}
	// Span <= 1 falls back to 2.
	if got := w.SpanAssumptions(0.5); len(got.Cases) != 8 {
		t.Error("span fallback failed")
	}
}

func TestWriteCSV(t *testing.T) {
	w := New("t")
	w.AddRow(0, "zone_a", Spec{Mode: iec61508.FMSoftError, Lambda: fit.Contribution{Transient: 10}, S: 0.5, Freq: F1, Lifetime: 1, Note: "hello"})
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + row + totals
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "zone_a") || !strings.Contains(lines[1], "soft error") || !strings.Contains(lines[1], "hello") {
		t.Errorf("row line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "TOTAL") {
		t.Errorf("totals line = %q", lines[2])
	}
	if !strings.Contains(w.Summary(), "SFF=") {
		t.Errorf("Summary = %q", w.Summary())
	}
}

// TestZonePartitionProperty: the SoC totals must equal the sum of the
// per-zone metrics — the worksheet is a partition of the failure rate.
func TestZonePartitionProperty(t *testing.T) {
	rng := func(seed int64) func() float64 {
		s := uint64(seed)*2654435761 + 1
		return func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s%1000) / 1000
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		r := rng(seed)
		w := New("p")
		zoneCount := 3 + int(r()*7)
		for z := 0; z < zoneCount; z++ {
			rows := 1 + int(r()*3)
			for k := 0; k < rows; k++ {
				w.AddRow(z, "z", Spec{
					Mode:   iec61508.FMStuckAtLogic,
					Lambda: fit.Contribution{Transient: r() * 100, Permanent: r() * 10},
					S:      r(), Freq: FreqClass(int(r()*4) % 4), Lifetime: r(),
					DDF:    DDF{HWTransient: r() * 0.99, HWPermanent: r() * 0.99},
					TechHW: iec61508.TechECCHamming,
				})
			}
		}
		tot := w.Totals()
		var sum Metrics
		for z := 0; z < zoneCount; z++ {
			zm := w.ZoneMetrics(z)
			sum.LambdaS += zm.LambdaS
			sum.LambdaD += zm.LambdaD
			sum.LambdaDD += zm.LambdaDD
			sum.LambdaDU += zm.LambdaDU
		}
		for name, pair := range map[string][2]float64{
			"λS":  {tot.LambdaS, sum.LambdaS},
			"λD":  {tot.LambdaD, sum.LambdaD},
			"λDD": {tot.LambdaDD, sum.LambdaDD},
			"λDU": {tot.LambdaDU, sum.LambdaDU},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-9 {
				t.Fatalf("seed %d: %s totals %v != zone sum %v", seed, name, pair[0], pair[1])
			}
		}
	}
}

// TestMetricsInvariants: for any row, λDD <= λD, λDU >= 0, DC and SFF in
// [0,1], and SFF >= S-share (detection can only help).
func TestMetricsInvariants(t *testing.T) {
	f := func(lt, lp, s, life uint16, freq uint8, hwT, hwP uint8) bool {
		spec := Spec{
			Mode:   iec61508.FMStuckAtData,
			Lambda: fit.Contribution{Transient: float64(lt), Permanent: float64(lp)},
			S:      float64(s%1000) / 1000, Freq: FreqClass(freq % 4),
			Lifetime: float64(life%1000) / 1000,
			DDF: DDF{
				HWTransient: float64(hwT%100) / 100,
				HWPermanent: float64(hwP%100) / 100,
			},
			TechHW: iec61508.TechECCHamming,
		}
		r := Row{Spec: spec}
		// Re-apply the AddRow clamping path.
		w := New("q")
		w.AddRow(0, "z", spec)
		r = w.Rows[0]
		m := r.RowMetrics()
		if m.LambdaDD > m.LambdaD+1e-12 || m.LambdaDU < -1e-12 {
			return false
		}
		if m.DC() < 0 || m.DC() > 1 || m.SFF() < 0 || m.SFF() > 1 {
			return false
		}
		den := m.LambdaS + m.LambdaD
		if den > 0 && m.SFF() < m.LambdaS/den-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
