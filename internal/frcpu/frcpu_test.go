package frcpu

import (
	"testing"

	"repro/internal/fit"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/xrand"
)

// TestCoreMatchesReference runs the gate-level core against the golden
// interpreter cycle by cycle for the demo program.
func TestCoreMatchesReference(t *testing.T) {
	d, err := Build(PlainConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	ref := RefState{}
	prog := d.Cfg.Program
	for cycle := 0; cycle < 200; cycle++ {
		StepRef(&ref, prog)
		s.Step()
		pc, _ := s.ReadOutput("pc")
		out, _ := s.ReadOutput("out")
		strobe, _ := s.ReadOutput("strobe")
		if byte(pc) != ref.PC || byte(out) != ref.Out || (strobe == 1) != ref.Strobe {
			t.Fatalf("cycle %d: gate pc=%d out=%#x strobe=%d, ref pc=%d out=%#x strobe=%v",
				cycle, pc, out, strobe, ref.PC, ref.Out, ref.Strobe)
		}
	}
}

// TestCoreRandomPrograms cross-checks gate-level vs interpreter on
// random programs (jumps constrained to stay interesting).
func TestCoreRandomPrograms(t *testing.T) {
	rng := xrand.New(404)
	for trial := 0; trial < 10; trial++ {
		var prog Program
		for i := range prog {
			op := rng.Intn(11)
			prog[i] = Instr(op, rng.Intn(16))
		}
		cfg := PlainConfig()
		cfg.Program = prog
		cfg.Name = "frcpu-rand"
		d, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.NewSimulator()
		if err != nil {
			t.Fatal(err)
		}
		ref := RefState{}
		for cycle := 0; cycle < 100; cycle++ {
			StepRef(&ref, prog)
			s.Step()
			pc, _ := s.ReadOutput("pc")
			out, _ := s.ReadOutput("out")
			if byte(pc) != ref.PC || byte(out) != ref.Out {
				t.Fatalf("trial %d cycle %d: gate pc=%d out=%#x, ref pc=%d out=%#x",
					trial, cycle, pc, out, ref.PC, ref.Out)
			}
		}
	}
}

func TestRunGateHoldsCore(t *testing.T) {
	d, _ := Build(PlainConfig())
	s, _ := d.NewSimulator()
	s.SetInput("run", 0)
	s.Eval()
	s.Run(10)
	if pc, _ := s.ReadOutput("pc"); pc != 0 {
		t.Errorf("pc advanced with run=0: %d", pc)
	}
}

func TestLockstepQuietFaultFree(t *testing.T) {
	d, err := Build(LockstepConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.NewSimulator()
	for i := 0; i < 100; i++ {
		s.Step()
		if v, _ := s.ReadOutput("alarm_lockstep"); v != 0 {
			t.Fatalf("lockstep alarm fired fault-free at cycle %d", i)
		}
	}
}

func TestLockstepCatchesCoreFault(t *testing.T) {
	d, _ := Build(LockstepConfig())
	s, _ := d.NewSimulator()
	s.Run(5)
	// Flip a state bit in core A only.
	var accFF int = -1
	for i := range d.N.FFs {
		if d.N.FFs[i].Name == "CPU_A/acc[0]" {
			accFF = i
		}
	}
	if accFF < 0 {
		t.Fatal("no CPU_A/acc[0] FF")
	}
	s.FlipFF(netlist.FFID(accFF))
	s.Eval()
	s.Run(3)
	if v, _ := s.ReadOutput("alarm_lockstep"); v != 1 {
		t.Error("lockstep missed an accumulator flip")
	}
}

// TestFMEALockstepBeatsPlain reproduces the methodology on the second
// case study: lockstep lifts SFF decisively.
func TestFMEALockstepBeatsPlain(t *testing.T) {
	rates := fit.Default()
	sffFor := func(cfg Config) float64 {
		d, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return d.Worksheet(a, rates).Totals().SFF()
	}
	plain := sffFor(PlainConfig())
	lock := sffFor(LockstepConfig())
	if lock <= plain {
		t.Fatalf("lockstep SFF %.4f <= plain %.4f", lock, plain)
	}
	if plain > 0.80 {
		t.Errorf("plain CPU SFF %.4f suspiciously high (no diagnostics claimed)", plain)
	}
	if lock < 0.95 {
		t.Errorf("lockstep SFF %.4f suspiciously low", lock)
	}
	t.Logf("SFF: plain %.4f, lockstep %.4f", plain, lock)
}

// TestInjectionLockstepDDF runs a reduced campaign on both arrangements:
// the measured detected-dangerous fraction must separate them sharply.
func TestInjectionLockstepDDF(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	ddfFor := func(cfg Config) float64 {
		d, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		target := d.InjectionTarget(a)
		g, err := target.RunGolden(d.Workload(120))
		if err != nil {
			t.Fatal(err)
		}
		plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 2, PermanentPerZone: 1, Seed: 3})
		rep, err := target.Run(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		det, dang := 0, 0
		for _, zm := range rep.ZoneMeasures(a) {
			det += zm.DangerDet
			dang += zm.DangerDet + zm.DangerUndet
		}
		if dang == 0 {
			return 1
		}
		return float64(det) / float64(dang)
	}
	plain := ddfFor(PlainConfig())
	lock := ddfFor(LockstepConfig())
	if lock <= plain {
		t.Errorf("measured DDF: lockstep %.3f <= plain %.3f", lock, plain)
	}
	t.Logf("measured DDF: plain %.3f, lockstep %.3f", plain, lock)
}

// TestFlowDUT checks the adapter the methodology flow runs the
// processing unit through: the workloads hold run high for the
// configured cycle budget, and the target's golden run completes.
func TestFlowDUT(t *testing.T) {
	d, err := Build(LockstepConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlowDUT(d)
	if f.DesignName() != d.Cfg.Name {
		t.Errorf("DesignName = %q, want %q", f.DesignName(), d.Cfg.Name)
	}
	val, cov := f.ValidationTrace(), f.CoverageTrace()
	if val.Cycles() != f.Cycles || cov.Cycles() != 2*f.Cycles {
		t.Errorf("workloads = %d and %d cycles, want %d and %d", val.Cycles(), cov.Cycles(), f.Cycles, 2*f.Cycles)
	}
	for i, vec := range val.Vecs {
		if vec[0] != 1 {
			t.Fatalf("cycle %d: run = %d, want 1", i, vec[0])
		}
	}
	a, err := f.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if w := f.Worksheet(a, fit.Default()); len(w.Rows) == 0 {
		t.Error("empty worksheet")
	}
	g, err := f.Target(a).RunGolden(val)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil {
		t.Fatal("nil golden run")
	}
}
