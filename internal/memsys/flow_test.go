package memsys

import (
	"strings"
	"testing"

	"repro/internal/fit"
)

// TestNewSimulatorAddrWidthLimit checks that the simulator refuses an
// array wider than its limit with an error naming the limit, while the
// design itself still builds at that width.
func TestNewSimulatorAddrWidthLimit(t *testing.T) {
	cfg := smallV2()
	cfg.AddrWidth = maxSimAddrWidth + 1
	d, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build at width %d: %v", cfg.AddrWidth, err)
	}
	_, _, err = d.NewSimulator()
	if err == nil || !strings.HasPrefix(err.Error(), "memsys:") || !strings.Contains(err.Error(), "limit of 16 bits") {
		t.Fatalf("NewSimulator at width %d: err = %v, want the memsys limit error", cfg.AddrWidth, err)
	}
	d, err = Build(smallV2())
	if err != nil {
		t.Fatal(err)
	}
	if _, arr, err := d.NewSimulator(); err != nil || len(arr.words) != 32 {
		t.Fatalf("NewSimulator at width 5: %v", err)
	}
}

// TestArrayStateRoundTrip checks the peripheral snapshot the campaign
// restores per experiment: restoring brings the stored words back, and
// the snapshot does not alias the live array.
func TestArrayStateRoundTrip(t *testing.T) {
	s, arr := arrayHarness(t, 4, 8)
	arr.testWrite(s, 1, 0xAA)
	snap := arr.SnapshotState()
	arr.testWrite(s, 1, 0xBB)
	arr.testWrite(s, 2, 0xCC)
	if arr.Peek(1) != 0xBB {
		t.Fatal("write after snapshot did not land: snapshot aliases the array")
	}
	arr.RestoreState(snap)
	if arr.Peek(1) != 0xAA || arr.Peek(2) != 0 {
		t.Errorf("restored words 1,2 = %#x,%#x, want 0xaa,0", arr.Peek(1), arr.Peek(2))
	}
	arr.testWrite(s, 1, 0x11)
	arr.RestoreState(snap)
	if arr.Peek(1) != 0xAA {
		t.Error("a second restore from the same snapshot lost its words")
	}

	_, small := arrayHarness(t, 3, 8)
	defer func() {
		if recover() == nil {
			t.Error("restoring a snapshot of another array size must panic")
		}
	}()
	small.RestoreState(snap)
}

// TestCodecVectorsClasses checks the codec stimulus rotates clean
// codewords, single-bit corruptions and double-bit corruptions, as the
// reference decoder classifies them.
func TestCodecVectorsClasses(t *testing.T) {
	cfg := smallV2()
	tr, err := CodecVectors(cfg, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles() != 60 || strings.Join(tr.Ports, ",") != "data,addr,check" {
		t.Fatalf("trace = %d cycles over %v", tr.Cycles(), tr.Ports)
	}
	codec, err := NewCodec(cfg.DataWidth, cfg.AddrWidth, cfg.Variant)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Vecs {
		res := codec.Decode(v[0], v[1], v[2])
		switch i % 3 {
		case 0:
			if res.Single || res.Double {
				t.Errorf("vector %d: clean codeword decoded as %+v", i, res)
			}
		case 1:
			if !res.Single {
				t.Errorf("vector %d: single corruption decoded as %+v", i, res)
			}
		default:
			if !res.Double {
				t.Errorf("vector %d: double corruption decoded as %+v", i, res)
			}
		}
	}
}

// TestFlowDUT checks the adapter the methodology flow runs a memory
// design through: name, analysis, worksheet, seeded target and both
// workloads.
func TestFlowDUT(t *testing.T) {
	d, err := Build(smallV2())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlowDUT(d)
	if f.DesignName() != d.Cfg.Name {
		t.Errorf("DesignName = %q, want %q", f.DesignName(), d.Cfg.Name)
	}
	a, err := f.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if w := f.Worksheet(a, fit.Default()); len(w.Rows) == 0 || w.Design != d.Cfg.Name {
		t.Errorf("worksheet has %d rows for %q", len(w.Rows), w.Design)
	}
	if f.Target(a) == nil {
		t.Fatal("nil target")
	}
	val, cov := f.ValidationTrace(), f.CoverageTrace()
	if val.Cycles() == 0 || cov.Cycles() == 0 {
		t.Errorf("empty workload: validation %d cycles, coverage %d", val.Cycles(), cov.Cycles())
	}
	if again := NewFlowDUT(d).ValidationTrace(); again.Cycles() != val.Cycles() {
		t.Error("validation workload is not deterministic for a fixed seed")
	}
}
