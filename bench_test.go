// Benchmarks regenerating every table and figure reproduced from the
// paper's evaluation (experiments E1–E23 of DESIGN.md). Each benchmark
// reports its headline quantities as custom metrics and prints the
// paper-vs-measured row once, so
//
//	go test -bench=. -benchmem
//
// produces the complete EXPERIMENTS.md record.
package repro

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/fit"
	"repro/internal/fmea"
	"repro/internal/frcpu"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/memsys"
	"repro/internal/mission"
	"repro/internal/netlist"
	"repro/internal/telemetry"
	"repro/internal/zones"
)

// ---------- shared fixtures (built once) ----------

type fixture struct {
	design *memsys.Design
	an     *zones.Analysis
	sheet  *fmea.Worksheet
}

var (
	fixOnce sync.Once
	fixV1   fixture
	fixV2   fixture
)

func fullFixtures(b *testing.B) (fixture, fixture) {
	b.Helper()
	fixOnce.Do(func() {
		rates := fit.Default()
		build := func(cfg memsys.Config) fixture {
			d, err := memsys.Build(cfg)
			if err != nil {
				panic(err)
			}
			a, err := d.Analyze()
			if err != nil {
				panic(err)
			}
			return fixture{design: d, an: a, sheet: d.Worksheet(a, rates)}
		}
		fixV1 = build(memsys.V1Config())
		fixV2 = build(memsys.V2Config())
	})
	return fixV1, fixV2
}

// smallCampaign runs a reduced injection campaign on a 64-word variant.
type campaignOut struct {
	an     *zones.Analysis
	sheet  *fmea.Worksheet
	report *inject.Report
	wide   *inject.Report
	golden *inject.Golden
	target *inject.Target
}

var (
	campOnce  sync.Once
	campByCfg map[string]*campaignOut
)

func campaign(b *testing.B, v2 bool) *campaignOut {
	b.Helper()
	campOnce.Do(func() {
		campByCfg = map[string]*campaignOut{}
		for _, useV2 := range []bool{false, true} {
			cfg := memsys.V1Config()
			if useV2 {
				cfg = memsys.V2Config()
			}
			cfg.AddrWidth = 6
			d, err := memsys.Build(cfg)
			if err != nil {
				panic(err)
			}
			a, err := d.Analyze()
			if err != nil {
				panic(err)
			}
			target := d.InjectionTargetSeeded(a, d.SeedFaults())
			g, err := target.RunGolden(d.ValidationWorkload(4, 1))
			if err != nil {
				panic(err)
			}
			plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
			rep, err := target.Run(g, plan)
			if err != nil {
				panic(err)
			}
			wide, err := target.Run(g, inject.WidePlan(a, g, 12, 2))
			if err != nil {
				panic(err)
			}
			campByCfg[cfg.Name] = &campaignOut{
				an: a, sheet: d.Worksheet(a, fit.Default()),
				report: rep, wide: wide, golden: g, target: target,
			}
		}
	})
	if v2 {
		return campByCfg["memsub-v2"]
	}
	return campByCfg["memsub-v1"]
}

var printOnce = map[string]*sync.Once{}
var printMu sync.Mutex

func once(key string, f func()) {
	printMu.Lock()
	o, ok := printOnce[key]
	if !ok {
		o = &sync.Once{}
		printOnce[key] = o
	}
	printMu.Unlock()
	o.Do(f)
}

// ---------- E1: zone extraction (paper: "about 170 sensible zones") ----------

func BenchmarkE1_ZoneExtraction(b *testing.B) {
	v1, v2 := fullFixtures(b)
	once("E1", func() {
		fmt.Printf("\n[E1] sensible zones: v1 %d, v2 %d (paper: ~170 for the industrial frmem IP)\n",
			len(v1.an.Zones), len(v2.an.Zones))
		fmt.Printf("[E1] %s\n[E1] %s\n", v1.an.Summary(), v2.an.Summary())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v2.design.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(v2.an.Zones)), "zones")
}

// ---------- E2/E3: SFF of the two implementations ----------

func BenchmarkE2_FMEA_V1(b *testing.B) {
	v1, _ := fullFixtures(b)
	m := v1.sheet.Totals()
	once("E2", func() {
		fmt.Printf("\n[E2] v1 SFF = %.4f (paper ≈ 0.95), DC = %.4f, SIL@HFT0 = %v (paper: misses SIL3)\n",
			m.SFF(), m.DC(), v1.sheet.SIL(0))
	})
	if m.SFF() >= 0.99 || v1.sheet.SIL(0) >= iec61508.SIL3 {
		b.Fatalf("v1 unexpectedly reaches SIL3 (SFF %.4f)", m.SFF())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v1.sheet.Totals()
	}
	b.ReportMetric(m.SFF()*100, "SFF%")
}

func BenchmarkE3_FMEA_V2(b *testing.B) {
	_, v2 := fullFixtures(b)
	m := v2.sheet.Totals()
	once("E3", func() {
		fmt.Printf("\n[E3] v2 SFF = %.4f (paper 0.9938), DC = %.4f, SIL@HFT0 = %v (paper: SIL3)\n",
			m.SFF(), m.DC(), v2.sheet.SIL(0))
	})
	if m.SFF() < 0.99 || v2.sheet.SIL(0) != iec61508.SIL3 {
		b.Fatalf("v2 misses SIL3 (SFF %.4f)", m.SFF())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v2.sheet.Totals()
	}
	b.ReportMetric(m.SFF()*100, "SFF%")
}

// ---------- E4: criticality ranking ----------

func BenchmarkE4_Ranking(b *testing.B) {
	v1, _ := fullFixtures(b)
	rank := v1.sheet.Ranking()
	once("E4", func() {
		fmt.Printf("\n[E4] v1 criticality ranking (paper: memory array, then BIST control, address\n")
		fmt.Printf("[E4] latching registers, decoder blocks, write buffer registers, MCE bus blocks):\n")
		for i, zr := range rank {
			if i >= 10 {
				break
			}
			fmt.Printf("[E4]  %2d. %-28s λDU=%.4f FIT (%.1f%%)\n", i+1, zr.ZoneName, zr.Metrics.LambdaDU, 100*zr.ShareDU)
		}
	})
	if rank[0].ZoneName != memsys.ArrayZoneName {
		b.Fatalf("top critical zone %q, want memory_array", rank[0].ZoneName)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v1.sheet.Ranking()
	}
	b.ReportMetric(100*rank[0].ShareDU, "topShare%")
}

// ---------- E5: sensitivity spans ----------

func BenchmarkE5_Sensitivity(b *testing.B) {
	v1, v2 := fullFixtures(b)
	s1 := v1.sheet.SpanAssumptions(2)
	s2 := v2.sheet.SpanAssumptions(2)
	once("E5", func() {
		fmt.Printf("\n[E5] assumption spans ×/÷2: v1 SFF ∈ [%.4f, %.4f] (spread %.4f);\n",
			s1.MinSFF, s1.MaxSFF, s1.Spread())
		fmt.Printf("[E5] v2 SFF ∈ [%.4f, %.4f] (spread %.4f) — paper: v2 'very stable'; v2 stays ≥0.99: %v\n",
			s2.MinSFF, s2.MaxSFF, s2.Spread(), s2.MinSFF >= 0.99)
	})
	if s2.Spread() >= s1.Spread() {
		b.Fatal("v2 not more stable than v1")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v2.sheet.SpanAssumptions(2)
	}
	b.ReportMetric(s1.Spread(), "v1spread")
	b.ReportMetric(s2.Spread(), "v2spread")
}

// ---------- E6: exhaustive zone-failure injection ----------

func BenchmarkE6_ZoneInjection(b *testing.B) {
	c1 := campaign(b, false)
	c2 := campaign(b, true)
	ddf := func(c *campaignOut) float64 {
		det, dang := 0, 0
		for _, zm := range c.report.ZoneMeasures(c.an) {
			det += zm.DangerDet
			dang += zm.DangerDet + zm.DangerUndet
		}
		if dang == 0 {
			return 1
		}
		return float64(det) / float64(dang)
	}
	d1, d2 := ddf(c1), ddf(c2)
	once("E6", func() {
		rows := c2.report.ValidateWorksheet(c2.an, c2.sheet, 0.35)
		fmt.Printf("\n[E6] measured detected-dangerous fraction: v1 %.3f, v2 %.3f (v2 must win);\n", d1, d2)
		fmt.Printf("[E6] worksheet cross-check (one-sided, tol 0.35): %.1f%% of %d zones in line\n",
			100*inject.PassFraction(rows), len(rows))
	})
	if d2 <= d1 {
		b.Fatalf("measured DDF: v2 %.3f <= v1 %.3f", d2, d1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One representative re-injection per iteration.
		plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 1, Seed: uint64(i + 3)})
		if _, err := c2.target.Run(c2.golden, plan[:1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d1, "DDFv1")
	b.ReportMetric(d2, "DDFv2")
}

// ---------- E7: workload toggle efficiency ----------

func BenchmarkE7_ToggleCoverage(b *testing.B) {
	_, v2 := fullFixtures(b)
	target := v2.design.InjectionTargetSeeded(v2.an, v2.design.SeedFaults())
	tr := v2.design.CoverageWorkload(1)
	rep, err := target.ToggleCoverage(tr)
	if err != nil {
		b.Fatal(err)
	}
	adj, excl := target.AdjustedToggle(rep)
	once("E7", func() {
		fmt.Printf("\n[E7] v2 toggle efficiency: raw %.4f, adjusted %.4f after excluding %d\n",
			rep.Coverage(), adj, excl)
		fmt.Printf("[E7] diagnostic-only nets (paper threshold: ≥0.99) — PASS: %v\n", adj >= 0.99)
	})
	if adj < 0.99 {
		b.Fatalf("adjusted toggle coverage %.4f below the 99%% threshold", adj)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := target.ToggleCoverage(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(adj*100, "toggle%")
}

// ---------- E8: gate-level stuck-at fault simulation ----------

func BenchmarkE8_FaultSim(b *testing.B) {
	n, err := memsys.BuildCodecBench(memsys.V2Config())
	if err != nil {
		b.Fatal(err)
	}
	u := faults.StuckAtUniverse(n)
	eng, err := faultsim.New(n)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := memsys.CodecVectors(memsys.V2Config(), 600, 42)
	if err != nil {
		b.Fatal(err)
	}
	var funcObs, diag []netlist.NetID
	for _, port := range []string{"dout", "enc"} {
		if p, ok := n.FindOutput(port); ok {
			funcObs = append(funcObs, p.Nets...)
		}
	}
	for _, port := range []string{"alarm_single", "alarm_double", "alarm_in_addr", "alarm_in_check"} {
		if p, ok := n.FindOutput(port); ok {
			diag = append(diag, p.Nets...)
		}
	}
	res, err := eng.Run(tr, funcObs, diag, u.Reps)
	if err != nil {
		b.Fatal(err)
	}
	once("E8", func() {
		fmt.Printf("\n[E8] codec gate-level fault simulation: %d collapsed stuck-ats (of %d, ratio %.2f),\n",
			len(u.Reps), len(u.All), u.CollapseRatio())
		fmt.Printf("[E8] coverage %.4f, diag-of-dangerous %.4f over %d random vectors\n",
			res.Coverage(), res.DiagOfDangerous(), tr.Cycles())
	})
	if res.Coverage() < 0.95 {
		b.Fatalf("codec fault coverage %.4f too low", res.Coverage())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(tr, funcObs, diag, u.Reps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Coverage()*100, "faultcov%")
}

// ---------- E9: wide/global fault experiments ----------

func BenchmarkE9_WideGlobal(b *testing.B) {
	c2 := campaign(b, true)
	multi := 0
	for _, res := range c2.wide.Results {
		if len(res.Deviated) >= 2 {
			multi++
		}
	}
	once("E9", func() {
		fmt.Printf("\n[E9] wide/global faults: %d experiments, %d produced multiple failures\n",
			len(c2.wide.Results), multi)
		fmt.Printf("[E9] (Fig. 2: one physical fault, failures in several sensible zones)\n")
	})
	if multi == 0 {
		b.Fatal("no wide fault produced multiple failures")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := inject.WidePlan(c2.an, c2.golden, 2, uint64(i+5))
		if _, err := c2.target.Run(c2.golden, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(multi), "multiFailure")
}

// ---------- E10: effect-table consistency (Figs. 1–3) ----------

func BenchmarkE10_EffectTables(b *testing.B) {
	c2 := campaign(b, true)
	checks := c2.report.CheckEffects(c2.an)
	bad := 0
	for _, ec := range checks {
		if !ec.Consistent {
			bad++
		}
	}
	once("E10", func() {
		fmt.Printf("\n[E10] effect tables: %d zones measured, %d inconsistent with the\n", len(checks), bad)
		fmt.Printf("[E10] main/secondary-effect prediction (each inconsistency = new FMEA lines)\n")
	})
	if bad > 0 {
		b.Fatalf("%d zones with unpredicted effects", bad)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c2.report.CheckEffects(c2.an)
	}
	b.ReportMetric(float64(len(checks)), "zonesChecked")
}

// ---------- E11: SFF/HFT → SIL grading table ----------

func BenchmarkE11_SILGrading(b *testing.B) {
	once("E11", func() {
		fmt.Printf("\n[E11] IEC 61508-2 type B architectural constraints (max claimable SIL):\n")
		fmt.Printf("[E11] %-14s %6s %6s %6s\n", "SFF band", "HFT0", "HFT1", "HFT2")
		for _, sff := range []float64{0.5, 0.7, 0.95, 0.995} {
			band := iec61508.BandOf(sff)
			fmt.Printf("[E11] %-14s %6v %6v %6v\n", band,
				iec61508.MaxSIL(sff, 0, true), iec61508.MaxSIL(sff, 1, true), iec61508.MaxSIL(sff, 2, true))
		}
		fmt.Printf("[E11] paper: SIL3 needs SFF ≥99%% at HFT0, >90%% at HFT1 — both reproduced\n")
	})
	if iec61508.MaxSIL(0.99, 0, true) != iec61508.SIL3 || iec61508.MaxSIL(0.92, 1, true) != iec61508.SIL3 {
		b.Fatal("grading table does not match the norm")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for hft := 0; hft <= 2; hft++ {
			_ = iec61508.MaxSIL(float64(i%100)/100, hft, true)
		}
	}
}

// ---------- E12: per-measure ablation ----------

func BenchmarkE12_Ablation(b *testing.B) {
	rates := fit.Default()
	sffFor := func(cfg memsys.Config) float64 {
		d, err := memsys.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		a, err := d.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		return d.Worksheet(a, rates).Totals().SFF()
	}
	type measure struct {
		name  string
		apply func(*memsys.Config)
	}
	measures := []measure{
		{"+addr-in-code", func(c *memsys.Config) { c.AddrInCode = true }},
		{"+wbuf-parity", func(c *memsys.Config) { c.WBufParity = true }},
		{"+coder-check", func(c *memsys.Config) { c.CoderCheck = true }},
		{"+redundant-checker", func(c *memsys.Config) { c.RedundantChecker = true; c.Bypass = true }},
		{"+distributed-syndrome", func(c *memsys.Config) { c.AddrInCode = true; c.DistributedSyndrome = true }},
	}
	base := sffFor(memsys.V1Config())
	full := sffFor(memsys.V2Config())
	var rows []string
	minGain := 1.0
	for _, msr := range measures {
		cfg := memsys.V1Config()
		cfg.Name = "v1" + msr.name
		msr.apply(&cfg)
		sff := sffFor(cfg)
		gain := sff - base
		if gain < minGain {
			minGain = gain
		}
		rows = append(rows, fmt.Sprintf("[E12]  v1%-24s SFF %.4f (%+.4f)", msr.name, sff, gain))
	}
	once("E12", func() {
		fmt.Printf("\n[E12] ablation of the five Section 6 measures over v1 (SFF %.4f):\n", base)
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("[E12]  all five (v2)                SFF %.4f (%+.4f)\n", full, full-base)
	})
	if minGain < 0 {
		b.Fatalf("a measure lowered SFF by %.4f", -minGain)
	}
	if full <= base {
		b.Fatal("v2 not above v1")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sffFor(memsys.V2Config())
	}
	b.ReportMetric((full-base)*100, "gain_pp")
}

// ---------- E13: campaign coverage completeness (Fig. 4) ----------

func BenchmarkE13_CampaignCoverage(b *testing.B) {
	c2 := campaign(b, true)
	cov := c2.report.Coverage
	ok, inactive := c2.golden.CompletenessOK()
	once("E13", func() {
		fmt.Printf("\n[E13] campaign coverage items: SENS %.4f, OBSE %.4f, DIAG %.4f, %d mismatches;\n",
			cov.SensFrac(), cov.ObseFrac(), cov.DiagFrac(), cov.Mismatches)
		fmt.Printf("[E13] workload completeness (every zone triggered): %v (%d exempt-or-inactive)\n", ok, len(inactive))
	})
	if cov.ObseFrac() < 1 || cov.DiagFrac() < 1 {
		b.Fatalf("observation coverage incomplete: OBSE %.3f DIAG %.3f", cov.ObseFrac(), cov.DiagFrac())
	}
	if !ok {
		b.Fatal("workload incomplete")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c2.golden.CompletenessOK()
	}
	b.ReportMetric(cov.SensFrac()*100, "SENS%")
}

// ---------- E14: synthesis-variant cross-check ----------

func BenchmarkE14_SynthVariants(b *testing.B) {
	rates := fit.Default()
	sffFor := func(v memsys.Variant) float64 {
		cfg := memsys.V2Config()
		cfg.Variant = v
		cfg.Name = "memsub-v2-" + v.String()
		d, err := memsys.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		a, err := d.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		return d.Worksheet(a, rates).Totals().SFF()
	}
	sa := sffFor(memsys.HsiaoA)
	sb := sffFor(memsys.HsiaoB)
	delta := sa - sb
	if delta < 0 {
		delta = -delta
	}
	once("E14", func() {
		fmt.Printf("\n[E14] synthesis cross-check (paper: 'different synthesis of the design'):\n")
		fmt.Printf("[E14] hsiao-a SFF %.4f vs hsiao-b SFF %.4f, |Δ| = %.5f (result implementation-stable)\n",
			sa, sb, delta)
	})
	if delta > 0.002 {
		b.Fatalf("variant sensitivity too high: |Δ| = %.5f", delta)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sffFor(memsys.HsiaoB)
	}
	b.ReportMetric(delta*1000, "deltaSFF_milli")
}

// ---------- E15: parallel campaign engine throughput ----------

// BenchmarkE15_ParallelCampaign measures the worker-pool campaign
// runner against the serial path on the reduced 64-word campaign. The
// merge is deterministic, so every worker count must reproduce the
// serial report bit-for-bit; the custom metrics report experiments/sec
// and speedup vs the measured serial baseline. Wall-clock speedup
// requires real cores: on a single-CPU host all worker counts converge
// to ~1×.
func BenchmarkE15_ParallelCampaign(b *testing.B) {
	c2 := campaign(b, true)
	plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
	plan = append(plan, inject.WidePlan(c2.an, c2.golden, 12, 2)...)

	start := time.Now()
	serialRep, err := c2.target.Run(c2.golden, plan)
	if err != nil {
		b.Fatal(err)
	}
	serialPerExp := time.Since(start).Seconds() / float64(len(plan))
	once("E15", func() {
		fmt.Printf("\n[E15] parallel campaign engine: %d experiments, serial baseline %.1f exp/s\n",
			len(plan), 1/serialPerExp)
		fmt.Printf("[E15] on GOMAXPROCS=%d (deterministic merge: reports bit-identical at any width)\n",
			runtime.GOMAXPROCS(0))
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := c2.target.RunParallel(c2.golden, plan, workers)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && !reflect.DeepEqual(rep, serialRep) {
					b.Fatal("parallel report differs from serial")
				}
			}
			perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
			b.ReportMetric(1/perExp, "exp/s")
			b.ReportMetric(serialPerExp/perExp, "speedup")
		})
	}
}

// ---------- E17: fault-tolerant campaign execution — kill a campaign
// mid-plan, resume from the deterministic checkpoint, and verify the
// merged report is bit-identical to the uninterrupted run. ----------

func BenchmarkE17_ResumedCampaign(b *testing.B) {
	c2 := campaign(b, true)
	plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
	plan = append(plan, inject.WidePlan(c2.an, c2.golden, 12, 2)...)

	start := time.Now()
	ref, err := c2.target.Run(c2.golden, plan)
	if err != nil {
		b.Fatal(err)
	}
	uninterrupted := time.Since(start)

	path := filepath.Join(b.TempDir(), "e17.ckpt")
	runKilledAndResumed := func(workers int) *inject.Report {
		tgt := *c2.target // never mutate the shared cached fixture
		tgt.Workers = workers
		tgt.Supervision = inject.Supervision{
			Checkpoint: path, CheckpointEvery: 4, StopAfter: len(plan) / 2,
		}
		if _, err := tgt.Run(c2.golden, plan); !errors.Is(err, inject.ErrCampaignStopped) {
			b.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
		}
		tgt.Supervision = inject.Supervision{Checkpoint: path, Resume: true}
		rep, err := tgt.Run(c2.golden, plan)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	start = time.Now()
	rep := runKilledAndResumed(4)
	resumed := time.Since(start)
	if !reflect.DeepEqual(ref, rep) {
		b.Fatal("resumed report differs from the uninterrupted run")
	}
	once("E17", func() {
		fmt.Printf("\n[E17] kill/resume campaign: %d experiments, kill at 50%%, resumed report bit-identical: %v\n",
			len(plan), reflect.DeepEqual(ref, rep))
		fmt.Printf("[E17] uninterrupted %.2fs vs killed+resumed %.2fs (checkpoint overhead amortized every 4 exps)\n",
			uninterrupted.Seconds(), resumed.Seconds())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := runKilledAndResumed(4)
		if rep == nil {
			b.Fatal("no report")
		}
	}
	perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
	b.ReportMetric(1/perExp, "exp/s")
	b.ReportMetric(resumed.Seconds()/uninterrupted.Seconds(), "overhead")
}

// ---------- E18: telemetry hot-path overhead — the out-of-band contract
// in numbers. The campaign runs once bare (Telemetry nil: one pointer
// check per hook) and once with a live metrics hub in the no-op-sink
// configuration (counters + histograms, no journal, no clock); the
// overhead must stay within noise (<2%). The reports must also be
// identical, the cheap half of the neutrality matrix test. ----------

func BenchmarkE18_TelemetryOverhead(b *testing.B) {
	c2 := campaign(b, true)
	plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
	plan = append(plan, inject.WidePlan(c2.an, c2.golden, 12, 2)...)

	runWith := func(tel *telemetry.Campaign) *inject.Report {
		tgt := *c2.target // never mutate the shared cached fixture
		tgt.Telemetry = tel
		rep, err := tgt.Run(c2.golden, plan)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	// Warm both paths, check neutrality, then time a fixed number of
	// alternating runs so the comparison shares cache and GC state.
	ref := runWith(nil)
	if rep := runWith(telemetry.NewCampaign(nil, nil)); !reflect.DeepEqual(ref, rep) {
		b.Fatal("instrumented report differs from bare report")
	}
	const rounds = 5
	timeRuns := func(tel *telemetry.Campaign) float64 {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			runWith(tel)
		}
		return time.Since(start).Seconds() / rounds
	}
	bare := timeRuns(nil)
	instr := timeRuns(telemetry.NewCampaign(nil, nil))
	overheadPct := 100 * (instr - bare) / bare
	once("E18", func() {
		fmt.Printf("\n[E18] telemetry overhead (no-op sink: atomic counters, no journal/clock):\n")
		fmt.Printf("[E18] bare %.3fs vs instrumented %.3fs per campaign — overhead %+.2f%% (target <2%%)\n",
			bare, instr, overheadPct)
	})
	for _, mode := range []struct {
		name string
		tel  func() *telemetry.Campaign
	}{
		{"telemetry=off", func() *telemetry.Campaign { return nil }},
		{"telemetry=on", func() *telemetry.Campaign { return telemetry.NewCampaign(nil, nil) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWith(mode.tel())
			}
			perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
			b.ReportMetric(1/perExp, "exp/s")
		})
	}
	b.ReportMetric(overheadPct, "overhead%")
}

// scalarRun times the reference runner — Target.RunOne per row on the
// interpreted simulator — over the plan, checking every row against the
// reference report. It is the scalar column of E19 and E20: no campaign
// runs on this loop, the tests compare the campaign engine against it.
func scalarRun(b *testing.B, tgt *inject.Target, g *inject.Golden, plan []inject.Injection, ref *inject.Report) time.Duration {
	b.Helper()
	start := time.Now()
	for i, inj := range plan {
		res, err := tgt.RunOne(g, inj)
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref.Results[i]) {
			b.Fatalf("row %d on the reference runner differs from the cold scalar reference", i)
		}
	}
	return time.Since(start)
}

// ---------- E19: golden-snapshot warm start — each experiment resumes
// from the golden snapshot at-or-before its injection cycle instead of
// re-simulating the shared prefix. With injection cycles uniform over
// the trace roughly half of all campaign cycles are redundant, so the
// single-core speedup should approach 2×. Both columns are taken on the
// scalar reference runner, where one experiment is one simulation and
// the skipped prefix shows undiluted. ----------

func BenchmarkE19_WarmStart(b *testing.B) {
	c2 := campaign(b, true)
	plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
	plan = append(plan, inject.WidePlan(c2.an, c2.golden, 12, 2)...)
	// Spread injection cycles uniformly over the trace (deterministic):
	// the OP-guided plan clusters cycles early, which would understate
	// the prefix a warm start can skip.
	cycles := c2.golden.Trace.Cycles()
	for i := range plan {
		plan[i].Cycle = i * (cycles - 1) / max(len(plan)-1, 1)
	}

	coldTgt := *c2.target // never mutate the shared cached fixture
	warmTgt := *c2.target
	warmTgt.SnapshotEvery = 16
	warmGolden, err := warmTgt.RunGolden(c2.golden.Trace)
	if err != nil {
		b.Fatal(err)
	}

	coldRep := injecttest.Reference(b, c2.target, c2.golden.Trace, plan)
	coldSerial := scalarRun(b, &coldTgt, c2.golden, plan, coldRep)
	warmSerial := scalarRun(b, &warmTgt, warmGolden, plan, coldRep)
	// Byte-identity of the campaign engine on the warm golden at every
	// tested worker count against the cold scalar reference — the
	// acceptance contract of the optimization.
	for _, workers := range []int{1, 2, 4, 8} {
		rep, err := warmTgt.RunParallel(warmGolden, plan, workers)
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(coldRep, rep) {
			b.Fatalf("workers=%d: warm-start report differs from the cold scalar reference", workers)
		}
	}
	once("E19", func() {
		fmt.Printf("\n[E19] golden-snapshot warm start: %d experiments, cadence 16, %d-cycle trace\n",
			len(plan), cycles)
		fmt.Printf("[E19] cold scalar %.2fs vs warm scalar %.2fs — %.2fx (reports bit-identical at workers 1,2,4,8)\n",
			coldSerial.Seconds(), warmSerial.Seconds(),
			coldSerial.Seconds()/warmSerial.Seconds())
	})
	for _, mode := range []struct {
		name string
		tgt  *inject.Target
		g    *inject.Golden
	}{
		{"cold", &coldTgt, c2.golden},
		{"warm", &warmTgt, warmGolden},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scalarRun(b, mode.tgt, mode.g, plan, coldRep)
			}
			perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
			b.ReportMetric(1/perExp, "exp/s")
		})
	}
	b.ReportMetric(coldSerial.Seconds()/warmSerial.Seconds(), "speedup")
}

// ---------- E20: compiled word-parallel simulation kernel — the campaign
// compiles the netlist to flat bytecode (internal/simc) and packs up to
// 64 experiments into the bit-lanes of one machine word, all restored
// from the same golden snapshot and stepped in lockstep. The acceptance
// contract: the merged report stays bit-identical to the cold scalar
// reference at every lanes × workers combination, and single-core
// throughput gains ≥10× over the E19 warm-start baseline on the scalar
// reference runner. Every campaign runs this way; the scalar column is
// what it replaced. ----------

func BenchmarkE20_CompiledLanes(b *testing.B) {
	c2 := campaign(b, true)
	plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
	plan = append(plan, inject.WidePlan(c2.an, c2.golden, 12, 2)...)
	// Same deterministic uniform injection-cycle spread as E19, so the
	// speedup composes with (and is measured against) the warm start.
	cycles := c2.golden.Trace.Cycles()
	for i := range plan {
		plan[i].Cycle = i * (cycles - 1) / max(len(plan)-1, 1)
	}

	warmTgt := *c2.target // never mutate the shared cached fixture
	warmTgt.SnapshotEvery = 16
	warmGolden, err := warmTgt.RunGolden(c2.golden.Trace)
	if err != nil {
		b.Fatal(err)
	}
	laneTgt := warmTgt
	laneTgt.Lanes = 64

	coldRep := injecttest.Reference(b, c2.target, c2.golden.Trace, plan)
	warmSerial := scalarRun(b, &warmTgt, warmGolden, plan, coldRep) // the E19 baseline this must beat
	start := time.Now()
	laneRep, err := laneTgt.Run(warmGolden, plan)
	if err != nil {
		b.Fatal(err)
	}
	laneSerial := time.Since(start)
	if !reflect.DeepEqual(coldRep, laneRep) {
		b.Fatal("64-lane report differs from the cold scalar reference")
	}
	// Byte-identity across the full lanes × workers acceptance matrix
	// against the cold scalar reference.
	for _, lanes := range []int{1, 8, 64} {
		for _, workers := range []int{1, 2, 4, 8} {
			tgt := laneTgt
			tgt.Lanes = lanes
			tgt.Workers = workers
			rep, err := tgt.Run(warmGolden, plan)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(coldRep, rep) {
				b.Fatalf("lanes=%d workers=%d: report differs from the cold scalar reference", lanes, workers)
			}
		}
	}
	speedup := warmSerial.Seconds() / laneSerial.Seconds()
	once("E20", func() {
		fmt.Printf("\n[E20] compiled 64-lane kernel: %d experiments, warm scalar %.2fs vs 64-lane %.3fs\n",
			len(plan), warmSerial.Seconds(), laneSerial.Seconds())
		fmt.Printf("[E20] — %.1fx single-core over the E19 warm-start baseline (target ≥10x;\n", speedup)
		fmt.Printf("[E20] reports bit-identical at lanes 1,8,64 × workers 1,2,4,8)\n")
	})
	b.Run("warm-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarRun(b, &warmTgt, warmGolden, plan, coldRep)
		}
		perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
		b.ReportMetric(1/perExp, "exp/s")
	})
	b.Run("lanes=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := laneTgt.Run(warmGolden, plan); err != nil {
				b.Fatal(err)
			}
		}
		perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
		b.ReportMetric(1/perExp, "exp/s")
	})
	b.ReportMetric(speedup, "speedup")
}

// ---------- E23: span-tracing overhead and neutrality — the campaign
// runs once bare and once with a live tracer journaling every span
// (campaign root, golden, batch, exp, checkpoint) to a discarded sink
// under the wall clock; the report must stay identical and the wall
// cost within noise (<2%), so tracing can stay on in production fleets. ----------

func BenchmarkE23_TracingOverhead(b *testing.B) {
	c2 := campaign(b, true)
	plan := inject.BuildPlan(c2.an, c2.golden, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 1})
	plan = append(plan, inject.WidePlan(c2.an, c2.golden, 12, 2)...)

	// A fresh traced hub per run: journal to io.Discard under the wall
	// clock, root span set so every campaign span lands in the journal.
	tracedHub := func() (*telemetry.Campaign, func()) {
		j := telemetry.NewJournal(io.Discard, telemetry.SystemClock)
		tel := telemetry.NewCampaign(nil, nil)
		tel.Tracer = telemetry.NewTracer(j, "bench", telemetry.TraceID("e23"))
		root := tel.StartSpan("campaign")
		tel.SetTraceRoot(root)
		return tel, func() {
			root.End()
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	runWith := func(tel *telemetry.Campaign) *inject.Report {
		tgt := *c2.target // never mutate the shared cached fixture
		tgt.Telemetry = tel
		rep, err := tgt.Run(c2.golden, plan)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	// Warm both paths, check neutrality, then time alternating rounds so
	// the comparison shares cache and GC state (the E18 protocol).
	ref := runWith(nil)
	{
		tel, done := tracedHub()
		if rep := runWith(tel); !reflect.DeepEqual(ref, rep) {
			b.Fatal("traced report differs from bare report")
		}
		done()
	}
	const rounds = 5
	bareSec, tracedSec := 0.0, 0.0
	for i := 0; i < rounds; i++ {
		start := time.Now()
		runWith(nil)
		bareSec += time.Since(start).Seconds()
		tel, done := tracedHub()
		start = time.Now()
		runWith(tel)
		tracedSec += time.Since(start).Seconds()
		done()
	}
	bareSec /= rounds
	tracedSec /= rounds
	overheadPct := 100 * (tracedSec - bareSec) / bareSec
	once("E23", func() {
		fmt.Printf("\n[E23] span tracing overhead (journal to discarded sink, wall clock):\n")
		fmt.Printf("[E23] bare %.3fs vs traced %.3fs per campaign — overhead %+.2f%% (target <2%%)\n",
			bareSec, tracedSec, overheadPct)
	})
	for _, mode := range []struct {
		name   string
		traced bool
	}{
		{"tracing=off", false},
		{"tracing=on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if mode.traced {
					tel, done := tracedHub()
					runWith(tel)
					done()
				} else {
					runWith(nil)
				}
			}
			perExp := b.Elapsed().Seconds() / float64(b.N*len(plan))
			b.ReportMetric(1/perExp, "exp/s")
		})
	}
	b.ReportMetric(overheadPct, "overhead%")
}

// ---------- X1 (extension): the fault-robust microcontroller direction —
// lockstep processing unit, same flow, per the paper's conclusion. ----------

func BenchmarkX1_LockstepCPU(b *testing.B) {
	rates := fit.Default()
	assess := func(cfg frcpu.Config) (sff float64, ddf float64) {
		d, err := frcpu.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		a, err := d.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		sff = d.Worksheet(a, rates).Totals().SFF()
		target := d.InjectionTarget(a)
		g, err := target.RunGolden(d.Workload(120))
		if err != nil {
			b.Fatal(err)
		}
		plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 3})
		rep, err := target.Run(g, plan)
		if err != nil {
			b.Fatal(err)
		}
		det, dang := 0, 0
		for _, zm := range rep.ZoneMeasures(a) {
			det += zm.DangerDet
			dang += zm.DangerDet + zm.DangerUndet
		}
		ddf = 1
		if dang > 0 {
			ddf = float64(det) / float64(dang)
		}
		return sff, ddf
	}
	plainSFF, plainDDF := assess(frcpu.PlainConfig())
	lockSFF, lockDDF := assess(frcpu.LockstepConfig())
	once("X1", func() {
		fmt.Printf("\n[X1] extension — processing unit per the conclusion's 'fault-robust\n")
		fmt.Printf("[X1] microcontrollers': plain core SFF %.4f (measured DDF %.2f) vs dual-core\n", plainSFF, plainDDF)
		fmt.Printf("[X1] lockstep SFF %.4f (measured DDF %.2f)\n", lockSFF, lockDDF)
	})
	if lockSFF <= plainSFF || lockDDF <= plainDDF {
		b.Fatalf("lockstep does not dominate: SFF %.4f<=%.4f or DDF %.2f<=%.2f",
			lockSFF, plainSFF, lockDDF, plainDDF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := frcpu.Build(frcpu.LockstepConfig())
		a, _ := d.Analyze()
		_ = d.Worksheet(a, rates).Totals()
	}
	b.ReportMetric(lockSFF*100, "lockstepSFF%")
	b.ReportMetric(plainSFF*100, "plainSFF%")
}

// ---------- X2 (extension): netlist interchange — write the codec to
// structural Verilog, parse it back, verify the flow still runs. ----------

func BenchmarkX2_VerilogInterchange(b *testing.B) {
	n, err := memsys.BuildCodecBench(memsys.V2Config())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	p, err := netlist.ParseVerilog(bytes.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	a1, _ := zones.Extract(n, zones.DefaultConfig())
	a2, _ := zones.Extract(p, zones.DefaultConfig())
	once("X2", func() {
		fmt.Printf("\n[X2] extension — Verilog interchange: %d bytes emitted; zone extraction\n", len(src))
		fmt.Printf("[X2] on the re-parsed netlist finds %d zones (original %d)\n",
			len(a2.Zones), len(a1.Zones))
	})
	if len(a2.Zones) != len(a1.Zones) {
		b.Fatalf("zones drifted: %d vs %d", len(a2.Zones), len(a1.Zones))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ParseVerilog(bytes.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(src)), "bytes")
}

// ---------- X3 (extension): Monte Carlo mission simulation — empirical
// SFF with rate-weighted fault arrivals vs the analytical worksheet. ----------

func BenchmarkX3_MissionSimulation(b *testing.B) {
	c2 := campaign(b, true)
	res, err := mission.Run(c2.target, c2.golden, c2.sheet, 200, 11)
	if err != nil {
		b.Fatal(err)
	}
	analytic := c2.sheet.Totals().SFF()
	once("X3", func() {
		fmt.Printf("\n[X3] extension — rate-weighted Monte Carlo missions: empirical %s\n", res)
		fmt.Printf("[X3] vs analytical SFF %.4f — interval brackets or exceeds the sheet: %v\n",
			analytic, res.SFFHigh >= analytic-0.05)
	})
	if res.SFFHigh < analytic-0.05 {
		b.Fatalf("empirical SFF %.4f far below analytic %.4f", res.SFFEmpirical, analytic)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mission.Run(c2.target, c2.golden, c2.sheet, 10, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SFFEmpirical*100, "empSFF%")
	b.ReportMetric(res.LambdaDUEmpirical, "empLambdaDU")
}
