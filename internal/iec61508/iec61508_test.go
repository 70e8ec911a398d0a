package iec61508

import "testing"

func TestBandOf(t *testing.T) {
	cases := []struct {
		sff  float64
		want SFFBand
	}{
		{0.0, BandBelow60}, {0.599, BandBelow60},
		{0.60, Band60to90}, {0.8999, Band60to90},
		{0.90, Band90to99}, {0.95, Band90to99}, {0.9899, Band90to99},
		{0.99, Band99up}, {0.9938, Band99up}, {1.0, Band99up},
	}
	for _, c := range cases {
		if got := BandOf(c.sff); got != c.want {
			t.Errorf("BandOf(%v) = %v, want %v", c.sff, got, c.want)
		}
	}
}

func TestMaxSILTypeB(t *testing.T) {
	// The paper's Section 2 statements:
	// HFT 0 requires SFF >= 99% for SIL3.
	if got := MaxSIL(0.99, 0, true); got != SIL3 {
		t.Errorf("SFF 99%% HFT0 = %v, want SIL3", got)
	}
	if got := MaxSIL(0.9938, 0, true); got != SIL3 {
		t.Errorf("SFF 99.38%% HFT0 = %v, want SIL3", got)
	}
	// v1's 95% only reaches SIL2 at HFT0.
	if got := MaxSIL(0.95, 0, true); got != SIL2 {
		t.Errorf("SFF 95%% HFT0 = %v, want SIL2", got)
	}
	// HFT 1 requires SFF > 90% for SIL3.
	if got := MaxSIL(0.92, 1, true); got != SIL3 {
		t.Errorf("SFF 92%% HFT1 = %v, want SIL3", got)
	}
	if got := MaxSIL(0.55, 0, true); got != SILNone {
		t.Errorf("SFF 55%% HFT0 = %v, want none", got)
	}
	if got := MaxSIL(0.995, 2, true); got != SIL4 {
		t.Errorf("SFF 99.5%% HFT2 = %v, want SIL4", got)
	}
}

func TestMaxSILTypeA(t *testing.T) {
	if got := MaxSIL(0.5, 0, false); got != SIL1 {
		t.Errorf("type A SFF 50%% HFT0 = %v, want SIL1", got)
	}
	if got := MaxSIL(0.95, 0, false); got != SIL3 {
		t.Errorf("type A SFF 95%% HFT0 = %v, want SIL3", got)
	}
	if got := MaxSIL(0.95, 1, false); got != SIL4 {
		t.Errorf("type A SFF 95%% HFT1 = %v, want SIL4", got)
	}
}

func TestMaxSILClampsHFT(t *testing.T) {
	if MaxSIL(0.7, -1, true) != MaxSIL(0.7, 0, true) {
		t.Error("negative HFT not clamped")
	}
	if MaxSIL(0.7, 5, true) != MaxSIL(0.7, 2, true) {
		t.Error("large HFT not clamped")
	}
}

func TestMonotonicity(t *testing.T) {
	// SIL must be monotone in both SFF band and HFT for both tables.
	sffs := []float64{0.3, 0.7, 0.95, 0.995}
	for _, typeB := range []bool{true, false} {
		for i := 1; i < len(sffs); i++ {
			for hft := 0; hft <= 2; hft++ {
				if MaxSIL(sffs[i], hft, typeB) < MaxSIL(sffs[i-1], hft, typeB) {
					t.Errorf("SIL not monotone in SFF (typeB=%v hft=%d)", typeB, hft)
				}
			}
		}
		for _, sff := range sffs {
			for hft := 1; hft <= 2; hft++ {
				if MaxSIL(sff, hft, typeB) < MaxSIL(sff, hft-1, typeB) {
					t.Errorf("SIL not monotone in HFT (typeB=%v sff=%v)", typeB, sff)
				}
			}
		}
	}
}

func TestRequiredSFF(t *testing.T) {
	band, ok := RequiredSFF(SIL3, 0)
	if !ok || band != Band99up {
		t.Errorf("SIL3 @ HFT0 needs %v ok=%v, want >=99%%", band, ok)
	}
	band, ok = RequiredSFF(SIL3, 1)
	if !ok || band != Band90to99 {
		t.Errorf("SIL3 @ HFT1 needs %v ok=%v, want 90-99%%", band, ok)
	}
	if _, ok := RequiredSFF(SIL4, 0); ok {
		t.Error("SIL4 @ HFT0 should be unachievable for type B")
	}
	if band.MinSFFValue() != 0.90 {
		t.Errorf("MinSFFValue(90-99) = %v", band.MinSFFValue())
	}
}

func TestSILStrings(t *testing.T) {
	if SIL3.String() != "SIL3" || SILNone.String() != "none" {
		t.Error("SIL strings wrong")
	}
	if BandBelow60.String() == "" || Band99up.String() == "" {
		t.Error("band strings empty")
	}
}

func TestFailureModeCatalogs(t *testing.T) {
	vm := CatalogFor(VariableMemory)
	if len(vm) != 5 {
		t.Errorf("variable-memory catalog size = %d, want 5", len(vm))
	}
	hasSoft := false
	for _, f := range vm {
		if f == FMSoftError {
			hasSoft = true
		}
	}
	if !hasSoft {
		t.Error("variable-memory catalog misses soft errors")
	}
	pu := CatalogFor(ProcessingUnit)
	if len(pu) == 0 {
		t.Error("processing-unit catalog empty")
	}
	if len(CatalogFor(DigitalLogic)) == 0 || len(CatalogFor(Interconnect)) == 0 {
		t.Error("logic/interconnect catalogs empty")
	}
}

func TestFailureModeProperties(t *testing.T) {
	if FMStuckAtData.String() != "stuck-at data" {
		t.Errorf("FMStuckAtData = %q", FMStuckAtData.String())
	}
	if FailureMode(200).String() != "unknown failure mode" {
		t.Error("unknown mode string")
	}
	if VariableMemory.String() != "variable memory" || ProcessingUnit.String() != "processing unit" {
		t.Error("component class strings")
	}
}

func TestDCLevels(t *testing.T) {
	if DCLow.Value() != 0.60 || DCMedium.Value() != 0.90 || DCHigh.Value() != 0.99 {
		t.Error("DC level values wrong")
	}
	if DCLow.String() != "low" || DCHigh.String() != "high" {
		t.Error("DC level strings wrong")
	}
}

func TestTechniqueDCClaims(t *testing.T) {
	// The paper: "RAM monitoring with Hamming code or ECCs or double RAMs
	// with hardware/software comparison are the ones with the highest
	// value".
	if MaxDC(TechECCHamming) != 0.99 {
		t.Errorf("ECC Hamming max DC = %v, want 0.99", MaxDC(TechECCHamming))
	}
	if MaxDC(TechDoubleRAM) != 0.99 {
		t.Errorf("double RAM max DC = %v", MaxDC(TechDoubleRAM))
	}
	if MaxDC(TechParityBit) >= MaxDC(TechECCHamming) {
		t.Error("parity must claim less than ECC")
	}
	if MaxDC(TechNone) != 0 {
		t.Error("TechNone must claim 0")
	}
	if lvl, ok := DCLevelOf(TechSWStartupTest); !ok || lvl != DCMedium {
		t.Errorf("SW startup test level = %v ok=%v", lvl, ok)
	}
	if _, ok := DCLevelOf(TechNone); ok {
		t.Error("TechNone should not grade")
	}
}

func TestClampClaim(t *testing.T) {
	if got := ClampClaim(TechParityBit, 0.95); got != 0.60 {
		t.Errorf("ClampClaim(parity, 0.95) = %v, want 0.60", got)
	}
	if got := ClampClaim(TechECCHamming, 0.95); got != 0.95 {
		t.Errorf("ClampClaim(ECC, 0.95) = %v, want 0.95", got)
	}
	if got := ClampClaim(TechECCHamming, -0.5); got != 0 {
		t.Errorf("ClampClaim negative = %v", got)
	}
}

func TestTechniquesDeterministic(t *testing.T) {
	a := Techniques()
	b := Techniques()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatal("Techniques inconsistent")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Techniques order nondeterministic")
		}
	}
}

func TestPFHConversion(t *testing.T) {
	if got := PFH(100); got < 0.999e-7 || got > 1.001e-7 {
		t.Errorf("PFH(100 FIT) = %v, want ~1e-7", got)
	}
	if got := PFH(0); got != 0 {
		t.Errorf("PFH(0) = %v", got)
	}
}

func TestSILFromPFH(t *testing.T) {
	cases := map[float64]SIL{
		5e-10: SIL4, 5e-9: SIL4, 5e-8: SIL3, 5e-7: SIL2, 5e-6: SIL1, 5e-5: SILNone,
	}
	for pfh, want := range cases {
		if got := SILFromPFH(pfh); got != want {
			t.Errorf("SILFromPFH(%v) = %v, want %v", pfh, got, want)
		}
	}
}
