package memsys

import (
	"testing"

	"repro/internal/fit"
	"repro/internal/iec61508"
	"repro/internal/zones"
)

func analyzeFull(t testing.TB, cfg Config) (*Design, *zones.Analysis) {
	t.Helper()
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return d, a
}

func TestAnalyzeIncludesArrayZone(t *testing.T) {
	d, a := analyzeFull(t, V2Config())
	z, ok := a.ZoneByName(ArrayZoneName)
	if !ok {
		t.Fatal("memory_array zone missing")
	}
	if z.Kind != zones.Peripheral {
		t.Errorf("array zone kind = %v", z.Kind)
	}
	if len(z.Outputs) != d.WordWidth() {
		t.Errorf("array zone outputs = %d, want %d", len(z.Outputs), d.WordWidth())
	}
	// The array's cone covers the memory-port driving logic.
	if a.Cones[z.ID].GateCount() == 0 {
		t.Error("array zone has no cone (port-driving logic missing)")
	}
	// Zone population in the same order of magnitude as the paper's 170.
	if len(a.Zones) < 40 {
		t.Errorf("only %d zones extracted", len(a.Zones))
	}
}

// TestPaperHeadlineNumbers is the E2/E3 reproduction at unit-test level:
// v1 fails SIL3 with SFF ≈ 95 %, v2 reaches it with SFF ≈ 99.4 %.
func TestPaperHeadlineNumbers(t *testing.T) {
	rates := fit.Default()
	d1, a1 := analyzeFull(t, V1Config())
	w1 := d1.Worksheet(a1, rates)
	sff1 := w1.Totals().SFF()
	if sff1 < 0.93 || sff1 >= 0.98 {
		t.Errorf("v1 SFF = %.4f, want ≈0.95 (paper: around 95%%)", sff1)
	}
	if w1.SIL(0) >= iec61508.SIL3 {
		t.Errorf("v1 must not reach SIL3, got %v", w1.SIL(0))
	}

	d2, a2 := analyzeFull(t, V2Config())
	w2 := d2.Worksheet(a2, rates)
	sff2 := w2.Totals().SFF()
	if sff2 < 0.99 {
		t.Errorf("v2 SFF = %.4f, want ≥0.99 (paper: 99.38%%)", sff2)
	}
	if w2.SIL(0) != iec61508.SIL3 {
		t.Errorf("v2 SIL = %v, want SIL3", w2.SIL(0))
	}
	// With HFT 1, v2 would grade SIL4 per the norm table.
	if w2.SIL(1) != iec61508.SIL4 {
		t.Errorf("v2 SIL @ HFT1 = %v, want SIL4", w2.SIL(1))
	}
}

// TestRankingMatchesPaperCriticalBlocks checks the E4 shape: the paper's
// v1 critical list is "besides the memory array itself … BIST control
// logic, registers involved in address latching, most of the decoder
// blocks, the registers of the write buffer, some of the MCE blocks".
func TestRankingMatchesPaperCriticalBlocks(t *testing.T) {
	d, a := analyzeFull(t, V1Config())
	w := d.Worksheet(a, fit.Default())
	rank := w.Ranking()
	if rank[0].ZoneName != ArrayZoneName {
		t.Errorf("top critical zone = %q, want memory_array", rank[0].ZoneName)
	}
	topN := map[string]bool{}
	for i, zr := range rank {
		if i >= 15 {
			break
		}
		topN[zr.ZoneName] = true
	}
	families := map[string]bool{}
	for name := range topN {
		switch {
		case contains(name, "WBUF"):
			families["wbuf"] = true
		case contains(name, "DECODER") || name == "out:rdata":
			families["decoder"] = true
		case contains(name, "BIST"):
			families["bist"] = true
		}
	}
	for _, fam := range []string{"wbuf", "decoder", "bist"} {
		if !families[fam] {
			t.Errorf("family %q missing from v1 top-15 criticality ranking", fam)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAblationMonotonic verifies E12's shape: enabling each design
// measure on top of V1 never lowers SFF, and the combination reaches V2.
func TestAblationMonotonic(t *testing.T) {
	rates := fit.Default()
	sffFor := func(cfg Config) float64 {
		d, a := analyzeFull(t, cfg)
		return d.Worksheet(a, rates).Totals().SFF()
	}
	base := sffFor(V1Config())
	measures := []struct {
		name  string
		apply func(*Config)
	}{
		{"addr-in-code", func(c *Config) { c.AddrInCode = true }},
		{"wbuf-parity", func(c *Config) { c.WBufParity = true }},
		{"coder-check", func(c *Config) { c.CoderCheck = true }},
		{"redundant-checker", func(c *Config) { c.RedundantChecker = true; c.Bypass = true }},
		{"distributed-syndrome", func(c *Config) { c.AddrInCode = true; c.DistributedSyndrome = true }},
	}
	for _, msr := range measures {
		cfg := V1Config()
		cfg.Name = "memsub-v1+" + msr.name
		msr.apply(&cfg)
		sff := sffFor(cfg)
		if sff < base-1e-9 {
			t.Errorf("measure %s lowered SFF: %.4f < %.4f", msr.name, sff, base)
		}
	}
	if v2 := sffFor(V2Config()); v2 <= base {
		t.Errorf("v2 SFF %.4f not above v1 %.4f", v2, base)
	}
}

// TestSensitivityStability reproduces E5's shape: the v2 result is
// "very stable" under assumption spans, much more than v1.
func TestSensitivityStability(t *testing.T) {
	rates := fit.Default()
	d1, a1 := analyzeFull(t, V1Config())
	d2, a2 := analyzeFull(t, V2Config())
	s1 := d1.Worksheet(a1, rates).SpanAssumptions(2)
	s2 := d2.Worksheet(a2, rates).SpanAssumptions(2)
	if s2.Spread() >= s1.Spread() {
		t.Errorf("v2 spread %.4f not below v1 spread %.4f", s2.Spread(), s1.Spread())
	}
	// v2 stays SIL3-capable across the whole span.
	if s2.MinSFF < 0.99 {
		t.Errorf("v2 min SFF under span = %.4f, drops out of SIL3 band", s2.MinSFF)
	}
}

func TestWorksheetCoversEveryRateZone(t *testing.T) {
	d, a := analyzeFull(t, V2Config())
	w := d.Worksheet(a, fit.Default())
	// Every register zone and the array must have rows with positive λ.
	hasRows := map[int]bool{}
	for _, r := range w.Rows {
		if r.Lambda.Total() > 0 {
			hasRows[r.Zone] = true
		}
	}
	for zi := range a.Zones {
		z := &a.Zones[zi]
		if z.Kind == zones.Register || z.Name == ArrayZoneName {
			if !hasRows[zi] {
				t.Errorf("zone %q has no rate rows", z.Name)
			}
		}
	}
}

func TestValidationWorkloadTriggersZones(t *testing.T) {
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
	tr := d.ValidationWorkload(8, 1)
	g, err := target.RunGolden(tr)
	if err != nil {
		t.Fatal(err)
	}
	ok, inactive := g.CompletenessOK()
	if !ok {
		var names []string
		for _, zi := range inactive {
			names = append(names, a.Zones[zi].Name)
		}
		t.Errorf("validation workload left zones untriggered: %v", names)
	}
}
