package fmea

import (
	"math"
	"testing"

	"repro/internal/fit"
	"repro/internal/iec61508"
	"repro/internal/rtl"
	"repro/internal/zones"
)

// sharedConeDesign: one adder feeding two registers, plus private output
// logic — exercises ownership weighting.
func sharedConeDesign(t *testing.T) *zones.Analysis {
	t.Helper()
	m := rtl.NewModule("own")
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	sum, _ := m.Add(a, b)
	r1 := m.RegNext("r1", sum, 0)
	r2 := m.RegNext("r2", sum, 0)
	m.Output("o1", m.Not(r1))
	m.Output("o2", r2)
	n := m.MustFinish()
	an, err := zones.Extract(n, zones.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestOwnershipWeightsConserveGates(t *testing.T) {
	a := sharedConeDesign(t)
	eff := OwnershipWeights(a)
	total := 0.0
	for _, v := range eff {
		total += v
	}
	// Every gate is in at least one owning cone in this design, so the
	// weighted sum must equal the gate count exactly.
	if want := float64(len(a.N.Gates)); math.Abs(total-want) > 1e-9 {
		t.Errorf("weighted gate total = %v, want %v", total, want)
	}
	// r1 and r2 share the adder: each owns half of the shared gates.
	z1, _ := a.ZoneByName("r1")
	z2, _ := a.ZoneByName("r2")
	if math.Abs(eff[z1.ID]-eff[z2.ID]) > 1e-9 {
		t.Errorf("symmetric zones own different weights: %v vs %v", eff[z1.ID], eff[z2.ID])
	}
	shared := a.SharedGates(z1.ID, z2.ID)
	if eff[z1.ID] >= float64(len(a.Cones[z1.ID].Gates)) && shared > 0 {
		t.Error("shared gates not split")
	}
}

func TestFromAnalysisDefaults(t *testing.T) {
	a := sharedConeDesign(t)
	rates := fit.Default()
	w := FromAnalysis(a, rates, nil)
	if len(w.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Register zones have 3 default rows; every row has positive λ.
	z1, _ := a.ZoneByName("r1")
	count := 0
	for _, r := range w.Rows {
		if r.Zone == z1.ID {
			count++
			if r.Lambda.Total() <= 0 {
				t.Errorf("row %v has zero λ", r.Mode)
			}
		}
	}
	if count != 3 {
		t.Errorf("register zone rows = %d, want 3", count)
	}
	// Default DDF is zero -> DC = 0, SFF = S share only.
	m := w.Totals()
	if m.DC() != 0 {
		t.Errorf("default DC = %v, want 0", m.DC())
	}
	if sff := m.SFF(); math.Abs(sff-0.5) > 0.05 {
		t.Errorf("default SFF = %v, want ~0.5 (S defaults)", sff)
	}
}

func TestFromAnalysisOverride(t *testing.T) {
	a := sharedConeDesign(t)
	w := FromAnalysis(a, fit.Default(), func(z *zones.Zone, defaults []Spec) []Spec {
		if z.Name == "r1" {
			// Cover r1 fully with a redundant checker.
			for i := range defaults {
				defaults[i].DDF = DDF{HWTransient: 0.99, HWPermanent: 0.99}
				defaults[i].TechHW = iec61508.TechRedundantChecker
			}
			return defaults
		}
		if z.Name == "r2" {
			return []Spec{} // drop r2 entirely
		}
		return nil // keep defaults
	})
	sawR1 := false
	for _, r := range w.Rows {
		if r.ZoneName == "r2" {
			t.Fatal("r2 rows present despite drop")
		}
		if r.ZoneName == "r1" {
			sawR1 = true
			if r.DDF.HWPermanent != 0.99 {
				t.Error("override DDF lost")
			}
		}
	}
	if !sawR1 {
		t.Fatal("r1 rows missing")
	}
}

func TestPeripheralZoneNeedsOverride(t *testing.T) {
	a := sharedConeDesign(t)
	// Manufacture a fake peripheral zone via config on a fresh design is
	// overkill; instead check defaultSpecs behavior through FromAnalysis:
	// sub-block zones produce no rows.
	cfg := zones.DefaultConfig()
	cfg.SubBlockMinGates = 1
	an, err := zones.Extract(a.N, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := FromAnalysis(an, fit.Default(), nil)
	for _, r := range w.Rows {
		if len(r.ZoneName) > 4 && r.ZoneName[:4] == "blk:" {
			t.Errorf("sub-block zone %q has default rows (double counting)", r.ZoneName)
		}
	}
}

// TestRegisterZoneLambda pins the register-zone rate the builder
// derives from the elementary rates: flip-flop transients plus latched
// logic transients on the transient row, flip-flop permanents on the
// stuck-register row, and logic permanents on the stuck-at row, with
// the zone's ownership-weighted gate count.
func TestRegisterZoneLambda(t *testing.T) {
	a := sharedConeDesign(t)
	rates := fit.Default()
	eff := OwnershipWeights(a)
	w := FromAnalysis(a, rates, nil)
	for _, name := range []string{"r1", "r2"} {
		z, _ := a.ZoneByName(name)
		ff := float64(len(z.FFs))
		want := map[iec61508.FailureMode]fit.Contribution{
			iec61508.FMTransient:     {Transient: ff*rates.FFTransient + eff[z.ID]*rates.GateTransient*rates.LatchingFraction},
			iec61508.FMRegisterStuck: {Permanent: ff * rates.FFPermanent},
			iec61508.FMStuckAtLogic:  {Permanent: eff[z.ID] * rates.GatePermanent},
		}
		seen := 0
		for _, r := range w.Rows {
			if r.Zone != z.ID {
				continue
			}
			seen++
			wl, ok := want[r.Mode]
			if !ok {
				t.Errorf("%s: unexpected row mode %v", name, r.Mode)
				continue
			}
			if math.Abs(r.Lambda.Transient-wl.Transient) > 1e-12 || math.Abs(r.Lambda.Permanent-wl.Permanent) > 1e-12 {
				t.Errorf("%s %v: λ = %+v, want %+v", name, r.Mode, r.Lambda, wl)
			}
		}
		if seen != len(want) {
			t.Errorf("%s: %d rows, want %d", name, seen, len(want))
		}
	}
}
