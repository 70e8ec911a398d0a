package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/iec61508"
)

// pinEngine is the engine -update-digests renders reports with. The
// knobs are byte-neutral, so the fast one is used; certify_default then
// checks the scalar engine against these pins on every run, and
// -verify-oracle proves the neutrality on a reduced plan.
var pinEngine = engineKnobs{Lanes: 64, SnapshotEvery: 16}

// assessReport renders one assessment report outside any workload.
func assessReport(d designKnobs, e engineKnobs, seed uint64, targetSIL int) (key string, report []byte, err error) {
	a, err := newAssessment(d, e, seed)
	if err != nil {
		return "", nil, err
	}
	if targetSIL != 0 {
		a.opts.TargetSIL = iec61508.SIL(targetSIL)
		a.key = assessKey(d, a.opts.WideFaults, seed, targetSIL)
	}
	as, err := core.Run(a.dut, a.opts)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", a.key, err)
	}
	return a.key, []byte(as.Report()), nil
}

// serialCampaign renders the canonical campaign report of a spec from
// one in-process run with the given engine knobs.
func serialCampaign(sp dist.Spec, e engineKnobs) ([]byte, error) {
	sp.Warmstart = e.SnapshotEvery
	cm, err := sp.Build()
	if err != nil {
		return nil, err
	}
	applyEngine(cm.Target, e)
	rep, err := cm.Target.Run(cm.Golden, cm.Plan)
	if err != nil {
		return nil, err
	}
	return renderCampaign(cm, rep), nil
}

// updateDigests recomputes every report the workloads can produce, at
// both sizings, and rewrites the pin file. A change that alters report
// bytes needs this run, in a benchmark-only PR of its own.
func updateDigests(out io.Writer) error {
	p := &pins{pinned: map[string]string{}, seen: map[string]string{}}
	note := func(key string, report []byte) { p.seen[key] = digestOf(report) }
	for _, sz := range []*sizing{&fullSizing, &smokeSizing} {
		for seed := uint64(1); seed <= pinnedSeeds; seed++ {
			for _, k := range []campaignKnobs{sz.Certify, sz.Lanes, sz.LongTrace} {
				for _, d := range k.Designs {
					key, report, err := assessReport(d, pinEngine, seed, 0)
					if err != nil {
						return err
					}
					note(key, report)
				}
			}
			sp := sz.Fleet.Spec
			sp.Seed = seed
			report, err := serialCampaign(sp, sz.Fleet.Engine)
			if err != nil {
				return err
			}
			note(campaignKey(sp), report)
		}
		fmt.Fprintf(out, "%s: campaign and fleet reports pinned for seeds 1..%d\n", sz.Name, pinnedSeeds)
		for planSeed := uint64(1); planSeed <= uint64(sz.Served.SeedSpace); planSeed++ {
			sub := sz.Served.fresh(planSeed)
			for _, sil := range []int{0, sz.Served.RegradeSIL} {
				sub.TargetSIL = sil
				d := designKnobs{Design: sub.Design, AddrWidth: sub.AddrWidth, Words: sub.Words, Transient: 1, Permanent: 1}
				_, report, err := assessReport(d, pinEngine, planSeed, sil)
				if err != nil {
					return err
				}
				note(servedKey(sub), report)
			}
		}
		fmt.Fprintf(out, "%s: served reports pinned for plan seeds 1..%d\n", sz.Name, sz.Served.SeedSpace)
	}
	if err := p.write(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d digests to %s\n", len(p.pinned), digestsPath)
	return nil
}

// verifyOracle proves, on a reduced plan, that every accelerated path
// the workloads time produces the bytes of the scalar serial engine:
// lanes, warm start, collapse, their combination, goroutine sharding,
// and the two-worker fleet. Not timed, not part of "-workload all".
func verifyOracle(out io.Writer) error {
	sp := dist.Spec{Design: "v2", AddrWidth: 5, Words: 4, Transient: 3, Permanent: 3, Wide: 8, Seed: 1}
	scalar, err := serialCampaign(sp, engineKnobs{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reference: scalar serial campaign %s, report sha256 %s\n", sp.Key(), digestOf(scalar)[:16])
	bad := 0
	verdict := func(name string, got, want []byte) {
		status := "PASS"
		if !bytes.Equal(got, want) {
			status = "FAIL"
			bad++
		}
		fmt.Fprintf(out, "  %-34s %s\n", name, status)
	}
	for _, v := range []struct {
		name string
		e    engineKnobs
	}{
		{"lanes 64", engineKnobs{Lanes: 64}},
		{"lanes 64 + warm start 16", engineKnobs{Lanes: 64, SnapshotEvery: 16}},
		{"collapse", engineKnobs{Collapse: true}},
		{"lanes 64 + collapse", engineKnobs{Lanes: 64, Collapse: true}},
		{"lanes 64 + collapse + 2 goroutines", engineKnobs{Lanes: 64, Collapse: true, Workers: 2}},
	} {
		got, err := serialCampaign(sp, v.e)
		if err != nil {
			return err
		}
		verdict(v.name, got, scalar)
	}

	k := fullSizing.Fleet
	k.Spec = sp
	k.Spec.Warmstart = fullSizing.Fleet.Spec.Warmstart
	k.SerialRuns = 1
	f, err := buildFleet(k, sp.Seed)
	if err != nil {
		return err
	}
	c := &runCtx{pins: &pins{pinned: map[string]string{}, seen: map[string]string{}}, res: &result{}}
	f.op(c, nil)
	for _, msg := range c.res.Failures {
		fmt.Fprintf(out, "  fleet: %s\n", msg)
	}
	if c.res.Failed > 0 {
		bad++
	}
	// The fleet op already compared its report with f.serialReport.
	verdict("fleet of 2 workers (via its serial)", f.serialReport, scalar)

	// The assessment report (core.Run) on the scalar and lane engines.
	d := designKnobs{Design: "v2", AddrWidth: 5, Words: 4, Transient: 1, Permanent: 1}
	_, want, err := assessReport(d, engineKnobs{}, 1, 0)
	if err != nil {
		return err
	}
	_, got, err := assessReport(d, pinEngine, 1, 0)
	if err != nil {
		return err
	}
	verdict("core.Run report, pin engine", got, want)
	if bad > 0 {
		return fmt.Errorf("verify-oracle: %d path(s) diverge from the scalar serial engine", bad)
	}
	fmt.Fprintln(out, "verify-oracle: every accelerated path reproduces the scalar serial bytes")
	return nil
}
