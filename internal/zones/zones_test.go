package zones

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// buildPipeline constructs a small design exercising every zone kind:
//
//	in data[4] -> stage1 reg -> XOR-mixer -> stage2 reg -> out
//	                         \-> parity -> alarm_par output
//	high-fanout enable net feeding both registers.
func buildPipeline(t *testing.T) *netlist.Netlist {
	t.Helper()
	m := rtl.NewModule("pipe")
	data := m.Input("data", 4)
	en := m.Input("en", 1)

	var s1 rtl.Bus
	m.InBlock("STAGE1", func() {
		s1 = m.RegEn("stage1", data, en[0], 0)
	})
	var mixed rtl.Bus
	m.InBlock("MIX", func() {
		mixed = m.Xor(s1, rtl.Bus{s1[1], s1[2], s1[3], s1[0]})
	})
	var s2 rtl.Bus
	m.InBlock("STAGE2", func() {
		s2 = m.RegEn("stage2", mixed, en[0], 0)
	})
	m.Output("out", s2)
	var par netlist.NetID
	m.InBlock("PARITY", func() {
		par = m.Parity(s1)
	})
	m.Output("alarm_parity", rtl.Bus{par})
	n, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExtractZoneKinds(t *testing.T) {
	n := buildPipeline(t)
	cfg := DefaultConfig()
	cfg.CriticalFanout = 8 // the enable net feeds 8 FFs
	cfg.SubBlockMinGates = 2
	cfg.SubBlockMaxOutputs = 8
	a, err := Extract(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := map[Kind]int{}
	for _, z := range a.Zones {
		count[z.Kind]++
	}
	if count[Register] != 2 {
		t.Errorf("register zones = %d, want 2 (stage1, stage2)", count[Register])
	}
	if count[Input] != 2 || count[Output] != 2 {
		t.Errorf("input/output zones = %d/%d, want 2/2", count[Input], count[Output])
	}
	if count[CriticalNet] < 1 {
		t.Errorf("critical-net zones = %d, want >=1 (enable)", count[CriticalNet])
	}
	if count[SubBlock] < 1 {
		t.Errorf("sub-block zones = %d, want >=1", count[SubBlock])
	}
	if !strings.Contains(a.Summary(), "sensible zones") {
		t.Error("Summary malformed")
	}
}

func TestRegisterZoneCompaction(t *testing.T) {
	n := buildPipeline(t)
	a, err := Extract(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	z, ok := a.ZoneByName("STAGE1/stage1")
	if !ok {
		names := []string{}
		for _, zz := range a.Zones {
			names = append(names, zz.Name)
		}
		t.Fatalf("no STAGE1/stage1 zone; have %v", names)
	}
	if len(z.FFs) != 4 {
		t.Errorf("stage1 zone has %d FFs, want 4", len(z.FFs))
	}
	if len(z.Outputs) != 4 {
		t.Errorf("stage1 zone has %d outputs", len(z.Outputs))
	}
	// Seeds: 4 D nets + 4 enable nets (shared enable net listed per FF).
	if len(z.Seeds) != 8 {
		t.Errorf("stage1 zone has %d seeds, want 8", len(z.Seeds))
	}
}

func TestConesStage2SeesMixer(t *testing.T) {
	n := buildPipeline(t)
	a, _ := Extract(n, DefaultConfig())
	z2, ok := a.ZoneByName("STAGE2/stage2")
	if !ok {
		t.Fatal("no stage2 zone")
	}
	cone := a.Cones[z2.ID]
	if cone.GateCount() == 0 {
		t.Fatal("stage2 cone empty; should contain the XOR mixer")
	}
	// All mixer gates are XORs in block MIX.
	foundMix := false
	for _, g := range cone.Gates {
		if n.Gates[g].Block == "MIX" {
			foundMix = true
		}
	}
	if !foundMix {
		t.Error("stage2 cone does not include MIX gates")
	}
	if cone.Depth < 1 {
		t.Errorf("cone depth = %d", cone.Depth)
	}
	// Leaves must be stage1 Q nets and the enable input.
	z1, _ := a.ZoneByName("STAGE1/stage1")
	qset := map[netlist.NetID]bool{}
	for _, q := range z1.Outputs {
		qset[q] = true
	}
	foundQ := false
	for _, l := range cone.Leaves {
		if qset[l] {
			foundQ = true
		}
	}
	if !foundQ {
		t.Error("stage2 cone leaves do not include stage1 outputs")
	}
}

func TestInputZoneHasNoCone(t *testing.T) {
	n := buildPipeline(t)
	a, _ := Extract(n, DefaultConfig())
	z, ok := a.ZoneByName("in:data")
	if !ok {
		t.Fatal("no in:data zone")
	}
	if a.Cones[z.ID].GateCount() != 0 {
		t.Error("input zone should have an empty cone")
	}
}

func TestObservationPoints(t *testing.T) {
	n := buildPipeline(t)
	a, _ := Extract(n, DefaultConfig())
	if len(a.Obs) != 2 {
		t.Fatalf("obs points = %d, want 2", len(a.Obs))
	}
	kinds := map[string]ObsKind{}
	for _, o := range a.Obs {
		kinds[o.Name] = o.Kind
	}
	if kinds["out"] != Functional {
		t.Error("out should be functional")
	}
	if kinds["alarm_parity"] != Diagnostic {
		t.Error("alarm_parity should be diagnostic")
	}
	if Functional.String() != "functional" || Diagnostic.String() != "diagnostic" {
		t.Error("ObsKind strings wrong")
	}
}

func TestMainAndSecondaryEffects(t *testing.T) {
	n := buildPipeline(t)
	a, _ := Extract(n, DefaultConfig())
	z1, _ := a.ZoneByName("STAGE1/stage1")
	z2, _ := a.ZoneByName("STAGE2/stage2")

	obsID := map[string]int{}
	for _, o := range a.Obs {
		obsID[o.Name] = o.ID
	}
	// stage1 reaches alarm_parity combinationally (main effect), and
	// "out" only through stage2 (secondary effect, Fig. 3).
	main1 := a.MainEffects(z1.ID)
	if !containsInt(main1, obsID["alarm_parity"]) {
		t.Errorf("stage1 main effects = %v, want alarm_parity (%d)", main1, obsID["alarm_parity"])
	}
	if containsInt(main1, obsID["out"]) {
		t.Errorf("stage1 main effects include out; should be secondary only")
	}
	sec1 := a.SecondaryEffects(z1.ID)
	if !containsInt(sec1, obsID["out"]) {
		t.Errorf("stage1 secondary effects = %v, want out (%d)", sec1, obsID["out"])
	}
	// stage1 migrates into stage2.
	if !containsInt(a.nextZones[z1.ID], z2.ID) {
		t.Errorf("stage1 next zones = %v, want stage2 (%d)", a.nextZones[z1.ID], z2.ID)
	}
	// stage2 reaches out directly and nothing secondary.
	if !containsInt(a.MainEffects(z2.ID), obsID["out"]) {
		t.Error("stage2 main effects missing out")
	}
	if len(a.SecondaryEffects(z2.ID)) != 0 {
		t.Errorf("stage2 secondary effects = %v, want none", a.SecondaryEffects(z2.ID))
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestCorrelationsSharedMixer(t *testing.T) {
	// stage2 and alarm-less out:... share no gates with parity? Build a
	// design where two registers share a cone: both sample the same adder.
	m := rtl.NewModule("shared")
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	sum, _ := m.Add(a, b)
	r1 := m.RegNext("r1", sum, 0)
	r2 := m.RegNext("r2", sum, 0)
	m.Output("o1", r1)
	m.Output("o2", r2)
	n := m.MustFinish()
	an, _ := Extract(n, DefaultConfig())
	z1, _ := an.ZoneByName("r1")
	z2, _ := an.ZoneByName("r2")
	shared := an.SharedGates(z1.ID, z2.ID)
	if shared == 0 {
		t.Fatal("r1 and r2 must share the adder cone")
	}
	corrs := an.Correlations(1)
	found := false
	for _, c := range corrs {
		if (c.A == z1.ID && c.B == z2.ID) || (c.A == z2.ID && c.B == z1.ID) {
			found = true
			if c.Shared != shared {
				t.Errorf("correlation shared = %d, want %d", c.Shared, shared)
			}
		}
	}
	if !found {
		t.Error("correlation list misses r1/r2 pair")
	}
}

func TestClassification(t *testing.T) {
	// Shared-adder design: adder gates touch 2+ zones -> wide.
	m := rtl.NewModule("cls")
	a := m.Input("a", 4)
	b := m.Input("b", 4)
	sum, _ := m.Add(a, b)
	r1 := m.RegNext("r1", sum, 0)
	r2 := m.RegNext("r2", sum, 0)
	inv := m.Not(r1) // private logic of o1 path
	m.Output("o1", inv)
	m.Output("o2", r2)
	n := m.MustFinish()
	an, _ := Extract(n, DefaultConfig())

	// An adder gate: find a gate in cone of both r1 and r2.
	z1, _ := an.ZoneByName("r1")
	z2, _ := an.ZoneByName("r2")
	var sharedGate netlist.GateID = -1
	for _, g := range an.Cones[z1.ID].Gates {
		for _, g2 := range an.Cones[z2.ID].Gates {
			if g == g2 {
				sharedGate = g
			}
		}
	}
	if sharedGate < 0 {
		t.Fatal("no shared gate")
	}
	if cl := an.ClassifyGate(sharedGate, 0.9); cl != faults.Wide {
		t.Errorf("shared adder gate class = %v, want wide (touch=%d)", cl, an.GateTouch(sharedGate))
	}
	// A NOT gate feeding only o1: local.
	notGate := netlist.GateID(-1)
	for i := range n.Gates {
		if n.Gates[i].Type == netlist.NOT {
			notGate = n.Gates[i].ID
		}
	}
	if cl := an.ClassifyGate(notGate, 0.9); cl != faults.Local {
		t.Errorf("private NOT gate class = %v, want local (touch=%d)", cl, an.GateTouch(notGate))
	}
}

func TestManualPeripheralZone(t *testing.T) {
	n := netlist.New("p")
	rdata := n.AddExternal("mem_rdata", 4)
	n.AddOutput("y", rdata)
	cfg := DefaultConfig()
	cfg.ExtraZones = []Zone{{Name: "memory_array", Outputs: rdata}}
	a, err := Extract(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	z, ok := a.ZoneByName("memory_array")
	if !ok {
		t.Fatal("manual zone missing")
	}
	if z.Kind != Peripheral {
		t.Errorf("manual zone kind = %v", z.Kind)
	}
	// Its failure reaches output y directly.
	if len(a.MainEffects(z.ID)) != 1 {
		t.Errorf("peripheral main effects = %v", a.MainEffects(z.ID))
	}
}

func TestDuplicateZoneNamesDisambiguated(t *testing.T) {
	n := netlist.New("d")
	in := n.AddInput("x", 1)
	n.AddOutput("x", in) // port named x both directions
	a, err := Extract(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, z := range a.Zones {
		if seen[z.Name] {
			t.Fatalf("duplicate zone name %q", z.Name)
		}
		seen[z.Name] = true
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Register: "register", Input: "input", Output: "output",
		CriticalNet: "critical-net", SubBlock: "sub-block", Peripheral: "peripheral",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
