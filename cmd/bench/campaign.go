package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/frcpu"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/memsys"
	"repro/internal/telemetry"
	"repro/internal/zones"
)

// buildDUT builds a design the way cmd/certify and internal/serve do,
// so the report is the one a CLI or daemon user gets.
func buildDUT(d designKnobs, seed uint64) (core.DUT, error) {
	switch d.Design {
	case "v1", "v2":
		cfg := memsys.V1Config()
		if d.Design == "v2" {
			cfg = memsys.V2Config()
		}
		cfg.AddrWidth = d.AddrWidth
		md, err := memsys.Build(cfg)
		if err != nil {
			return nil, err
		}
		f := memsys.NewFlowDUT(md)
		f.ValidationWords = d.Words
		f.Seed = seed
		return f, nil
	case "cpu-lockstep":
		cd, err := frcpu.Build(frcpu.LockstepConfig())
		if err != nil {
			return nil, err
		}
		return frcpu.NewFlowDUT(cd), nil
	}
	return nil, fmt.Errorf("bench: unknown design %q", d.Design)
}

// warmDUT sets the one engine knob core.Options does not carry: the
// golden snapshot cadence lives on the inject.Target.
type warmDUT struct {
	core.DUT
	every int
}

func (w warmDUT) Target(a *zones.Analysis) *inject.Target {
	t := w.DUT.Target(a)
	t.SnapshotEvery = w.every
	return t
}

// assessOptions is core.DefaultOptions with validation on, the
// design's plan and the workload's engine knobs — nothing else.
func assessOptions(d designKnobs, e engineKnobs, seed uint64) core.Options {
	opts := core.DefaultOptions()
	opts.RunValidation = true
	opts.Plan = inject.PlanConfig{TransientPerZone: d.Transient, PermanentPerZone: d.Permanent, Seed: seed}
	opts.Workers = e.Workers
	opts.Lanes = e.Lanes
	opts.Collapse = e.Collapse
	return opts
}

// assessment is one design of a campaign workload, built in set-up.
type assessment struct {
	dut  core.DUT
	opts core.Options
	key  string
}

func newAssessment(d designKnobs, e engineKnobs, seed uint64) (*assessment, error) {
	dut, err := buildDUT(d, seed)
	if err != nil {
		return nil, err
	}
	if e.SnapshotEvery > 0 {
		dut = warmDUT{dut, e.SnapshotEvery}
	}
	opts := assessOptions(d, e, seed)
	return &assessment{
		dut: dut, opts: opts,
		key: assessKey(d, opts.WideFaults, seed, int(opts.TargetSIL)),
	}, nil
}

// rowsOf counts the plan rows an assessment resolved.
func rowsOf(as *core.Assessment) int {
	n := 0
	if v := as.Validation; v != nil {
		for _, rep := range []*inject.Report{v.Report, v.WideReport} {
			if rep != nil {
				n += len(rep.Results) + len(rep.Quarantined)
			}
		}
	}
	return n
}

// run is the product path: core.Run then Report(), digest-checked. It
// returns the plan rows resolved, 0 when the assessment failed.
func (a *assessment) run(c *runCtx) (rows int) {
	as, err := core.Run(a.dut, a.opts)
	if err != nil {
		c.res.fail("%s: %v", a.key, err)
		return 0
	}
	c.checkReport(a.key, []byte(as.Report()))
	return rowsOf(as)
}

// runDesigns is one op of a campaign workload: every design once.
func runDesigns(c *runCtx, designs []*assessment) (rows int) {
	for _, a := range designs {
		rows += a.run(c)
	}
	return rows
}

// checkReport digest-checks one report and books a mismatch as a
// failed op.
func (c *runCtx) checkReport(key string, report []byte) {
	pinned, err := c.pins.check(key, report)
	if err != nil {
		c.res.fail("%v", err)
	}
	if !pinned {
		c.res.mu.Lock()
		c.res.DigestPinned = false
		c.res.mu.Unlock()
	}
}

// replay walks core.Run's sequence through the same public calls, one
// span per layer call, and renders the same report. It exists because
// core.Run cannot be timed from outside stage by stage; its fidelity
// is checked twice — the report must hash to the same pin, and the
// spans must add up to the untraced core.Run wall
// (core.unattributed_frac). tel may carry a counter-only hub.
func (a *assessment) replay(c *runCtx, op int, tel *telemetry.Campaign) (*core.Assessment, error) {
	tr, opts, dut := c.tr, a.opts, a.dut
	root := tr.start("replay", op, -1)
	defer tr.end(root)
	var err error

	var an *zones.Analysis
	tr.do("zones.analyze", op, root, func() { an, err = dut.Analyze() })
	if err != nil {
		return nil, err
	}
	as := &core.Assessment{Name: dut.DesignName(), Analysis: an, TargetSIL: opts.TargetSIL}
	tr.do("fmea.worksheet", op, root, func() {
		as.Worksheet = dut.Worksheet(an, opts.Rates)
		as.Metrics = as.Worksheet.Totals()
		as.SIL = iec61508.MaxSIL(as.Metrics.SFF(), opts.HFT, true)
		as.Sensitivity = as.Worksheet.SpanAssumptions(opts.Span)
	})
	as.TargetMet = as.SIL >= opts.TargetSIL
	tr.do("drc.run", op, root, func() {
		as.DRC, err = drc.Run(drc.Input{Netlist: an.N, Analysis: an, Worksheet: as.Worksheet, Rates: &opts.Rates}, opts.DRC)
	})
	if err != nil {
		return nil, err
	}

	target := dut.Target(an)
	target.Telemetry = tel
	target.Workers, target.Lanes, target.Collapse = opts.Workers, opts.Lanes, opts.Collapse
	var golden *inject.Golden
	tr.do("inject.golden", op, root, func() { golden, err = target.RunGolden(dut.ValidationTrace()) })
	if err != nil {
		return nil, err
	}
	v := &core.Validation{}
	var inactive []int
	v.Complete, inactive = golden.CompletenessOK()
	for _, zi := range inactive {
		v.InactiveZones = append(v.InactiveZones, an.Zones[zi].Name)
	}
	var plan, widePlan []inject.Injection
	tr.do("inject.plan", op, root, func() {
		plan = inject.BuildPlan(an, golden, opts.Plan)
		widePlan = inject.WidePlan(an, golden, opts.WideFaults, opts.Plan.Seed+1)
	})
	tr.do("inject.zone_campaign", op, root, func() { v.Report, err = target.Run(golden, plan) })
	if err != nil {
		return nil, err
	}
	tr.do("inject.wide_campaign", op, root, func() { v.WideReport, err = target.Run(golden, widePlan) })
	if err != nil {
		return nil, err
	}
	tr.do("inject.analyze", op, root, func() {
		v.Rows = v.Report.ValidateWorksheet(an, as.Worksheet, opts.Tolerance)
		v.PassFraction = inject.PassFraction(v.Rows)
		v.Effects = v.Report.CheckEffects(an)
		v.EffectsOK = true
		for _, ec := range v.Effects {
			v.EffectsOK = v.EffectsOK && ec.Consistent
		}
	})
	tr.do("inject.toggle", op, root, func() {
		rep, terr := target.ToggleCoverage(dut.CoverageTrace())
		if terr != nil {
			err = terr
			return
		}
		v.ToggleRaw = rep.Coverage()
		v.ToggleAdj, _ = target.AdjustedToggle(rep)
		v.ToggleOK = v.ToggleAdj >= opts.ToggleThreshold
	})
	if err != nil {
		return nil, err
	}
	as.Validation = v
	return as, nil
}

// stageSpans are the spans that make up one core.Run-shaped op; each
// is the ledger line "<span>_ms". The design build (span
// "memsys.build", recorded in set-up) is not among them: core.Run is
// handed a built design.
var stageSpans = []string{
	"zones.analyze", "fmea.worksheet", "drc.run", "inject.golden", "inject.plan",
	"inject.zone_campaign", "inject.wide_campaign", "inject.analyze", "inject.toggle", "core.report",
}

// hubCounts reads the engine counters the ledger keeps from a hub.
func hubCounts(tel *telemetry.Campaign) map[string]float64 {
	s := tel.Registry.Snapshot()
	out := map[string]float64{
		"inject.rows":               float64(s.Gauges["plan_total"]),
		"inject.sim_cycles":         float64(s.Counters["sim_cycles"]),
		"inject.batches":            float64(s.Counters["batches"]),
		"inject.rows_static_pruned": float64(s.Counters["faults_static_pruned"]),
		"inject.rows_collapsed":     float64(s.Counters["faults_collapsed"]),
		"inject.rows_inherited":     float64(s.Counters["outcomes_inherited"]),
	}
	if h := s.Histograms["lane_occupancy"]; h.Count > 0 {
		out["inject.lane_occupancy"] = float64(h.Sum) / float64(h.Count) / 64
	}
	if rows := out["inject.rows"]; rows > 0 {
		out["inject.simulated_frac"] = 1 - (out["inject.rows_static_pruned"]+out["inject.rows_inherited"])/rows
	}
	return out
}

// reportCounts adds hub counters to the result and fails the run when
// a second reading (another op of the same inputs) did not repeat them.
func (c *runCtx) reportCounts(readings []map[string]float64) {
	if len(readings) == 0 {
		return
	}
	first := readings[0]
	for _, d := range perLayer {
		v, ok := first[d.Name]
		if !ok {
			continue
		}
		for _, r := range readings[1:] {
			if r[d.Name] != v {
				c.res.fail("%s did not repeat: %v then %v", d.Name, v, r[d.Name])
				break
			}
		}
		c.res.add(d.Name, d.Unit, v, nil)
	}
}

// runCampaign is the body of certify_default, campaign_lanes and
// campaign_longtrace: a closed loop of one caller assessing the
// workload's designs over and over.
func runCampaign(c *runCtx, k campaignKnobs, micro func(*runCtx, *assessment) error) error {
	var designs []*assessment
	err := c.measureSetup(func(round int) error {
		designs = designs[:0]
		for _, d := range k.Designs {
			var a *assessment
			var err error
			c.tr.do("memsys.build", -1-round, -1, func() { a, err = newAssessment(d, k.Engine, c.seed) })
			if err != nil {
				return err
			}
			designs = append(designs, a)
		}
		if runDesigns(c, designs) == 0 { // warm-up op
			return fmt.Errorf("bench: warm-up op failed: %v", c.res.Failures)
		}
		return nil
	})
	if err != nil {
		return err
	}

	if c.tr == nil {
		c.reportEndToEnd(c.timedLoop(k.MinOps, func(int) int { return runDesigns(c, designs) }))
		return nil
	}

	// Traced run: each op is made twice, once through core.Run
	// (untimed stages, the reference wall) and once through the staged
	// replay with a counter hub attached.
	var plain, staged []float64
	var counts []map[string]float64
	c.timedLoop(max(2, k.MinOps/2), func(op int) int {
		start := time.Now()
		rows := runDesigns(c, designs)
		plain = append(plain, time.Since(start).Seconds())

		tel := telemetry.NewCampaign(nil, nil)
		start = time.Now()
		for _, a := range designs {
			as, err := a.replay(c, op, tel)
			if err != nil {
				c.res.fail("replay %s: %v", a.key, err)
				continue
			}
			var report string
			c.tr.do("core.report", op, -1, func() { report = as.Report() })
			c.checkReport(a.key, []byte(report))
		}
		staged = append(staged, time.Since(start).Seconds())
		counts = append(counts, hubCounts(tel))
		return rows
	})
	c.res.addSamples("memsys.build_ms", "ms", c.tr.perOp("memsys.build", time.Millisecond))
	stageSum := 0.0
	for _, name := range stageSpans {
		samples := c.tr.perOp(name, time.Millisecond)
		c.res.addSamples(name+"_ms", "ms", samples)
		stageSum += median(samples)
	}
	c.res.add("core.unattributed_frac", "ratio", 1-stageSum/1000/median(plain), nil)
	c.res.add("bench.trace_overhead_frac", "ratio", median(staged)/median(plain)-1, nil)
	c.reportCounts(counts)
	if zone, ok := c.res.lookup("inject.zone_campaign_ms"); ok && counts[0]["inject.sim_cycles"] > 0 {
		c.res.add("inject.ns_per_sim_cycle", "ns", zone.Value*1e6/counts[0]["inject.sim_cycles"], nil)
	}
	return micro(c, designs[0])
}
