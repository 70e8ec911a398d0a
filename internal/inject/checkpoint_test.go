package inject_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/frcpu"
	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/netlist"
)

// cpuCampaign builds the second checkpoint/resume target: the
// fault-robust CPU case study, so the byte-identity matrix spans both
// design families.
func cpuCampaign(t *testing.T) (*inject.Target, *inject.Golden, []inject.Injection) {
	t.Helper()
	d, err := frcpu.Build(frcpu.PlainConfig())
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
	plan := inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 3})
	return target, g, stride(plan, 3)
}

// TestCheckpointResumeByteIdentity is the core determinism contract of
// the supervision layer: kill a campaign at 0%, 50% or 99% of the plan,
// resume it from the checkpoint at 1, 2 or 8 workers, and the merged
// report must be byte-identical to the scalar reference — on both the
// memory sub-system and the CPU case study.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	fixtures := []struct {
		name    string
		fixture func(*testing.T) (*inject.Target, *inject.Golden, []inject.Injection)
	}{
		{"memsys", func(t *testing.T) (*inject.Target, *inject.Golden, []inject.Injection) {
			return reducedCampaign(t, true)
		}},
		{"frcpu", cpuCampaign},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			target, g, plan := fx.fixture(t)
			ref := injecttest.Reference(t, target, g.Trace, plan)
			refRender := fmt.Sprintf("%#v", ref)
			for _, workers := range []int{1, 2, 8} {
				for _, kill := range []float64{0, 0.5, 0.99} {
					t.Run(fmt.Sprintf("workers=%d/kill=%d%%", workers, int(kill*100)), func(t *testing.T) {
						path := filepath.Join(t.TempDir(), "campaign.ckpt")
						if kill == 0 {
							// Kill before the first completion: resuming
							// from an empty checkpoint replays everything.
							if err := inject.WriteCheckpoint(path, &inject.Checkpoint{}, plan); err != nil {
								t.Fatal(err)
							}
						} else {
							stopAfter := int(float64(len(plan)) * kill)
							if stopAfter < 1 {
								stopAfter = 1
							}
							tgt := *target
							tgt.Workers = workers
							tgt.Lanes = 1 // the stop lands on a row, not on a batch of them
							tgt.Supervision = inject.Supervision{
								Checkpoint: path, CheckpointEvery: 1, StopAfter: stopAfter,
							}
							_, err := tgt.Run(g, plan)
							if !errors.Is(err, inject.ErrCampaignStopped) {
								t.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
							}
						}
						tgt := *target
						tgt.Workers = workers
						tgt.Supervision = inject.Supervision{Checkpoint: path, Resume: true}
						rep, err := tgt.Run(g, plan)
						if err != nil {
							t.Fatalf("resume: %v", err)
						}
						if !reflect.DeepEqual(ref, rep) {
							t.Fatal("resumed report differs from the scalar reference")
						}
						if fmt.Sprintf("%#v", rep) != refRender {
							t.Fatal("resumed report renders differently from the scalar reference")
						}
						// The final checkpoint holds the whole campaign:
						// resuming again replays nothing and still matches.
						again, err := tgt.Run(g, plan)
						if err != nil {
							t.Fatalf("re-resume: %v", err)
						}
						if !reflect.DeepEqual(ref, again) {
							t.Fatal("re-resumed (fully preloaded) report differs")
						}
					})
				}
			}
		})
	}
}

// TestResumeMissingFileIsFreshStart: Resume with no checkpoint on disk
// runs the full campaign rather than erroring — first launch and
// relaunch share one command line.
func TestResumeMissingFileIsFreshStart(t *testing.T) {
	target, g, plan := reducedCampaign(t, false)
	ref := injecttest.Reference(t, target, g.Trace, plan)
	tgt := *target
	tgt.Supervision = inject.Supervision{
		Checkpoint: filepath.Join(t.TempDir(), "never-written.ckpt"),
		Resume:     true,
	}
	rep, err := tgt.Run(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("fresh-start resume differs from the scalar reference")
	}
}

// TestResumeQuarantinePersisted: quarantine records survive the
// checkpoint round trip — a resumed campaign does not re-run (and
// re-crash on) experiments that were already quarantined.
func TestResumeQuarantinePersisted(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	poisoned := poisonPlan(plan, 1)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	tgt := *target
	tgt.Supervision = inject.Supervision{
		Quarantine: true, Checkpoint: path, CheckpointEvery: 1,
		StopAfter: len(poisoned) / 2,
	}
	if _, err := tgt.Run(g, poisoned); !errors.Is(err, inject.ErrCampaignStopped) {
		t.Fatalf("interrupted run: got %v, want ErrCampaignStopped", err)
	}

	tgt.Supervision = inject.Supervision{Quarantine: true, Checkpoint: path, Resume: true}
	rep, err := tgt.Run(g, poisoned)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted := *target
	uninterrupted.Supervision = inject.Supervision{Quarantine: true}
	ref, err := uninterrupted.Run(g, poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, rep) {
		t.Fatal("resumed quarantine campaign differs from the uninterrupted one")
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].PlanIndex != 1 {
		t.Fatalf("quarantine section lost in the round trip: %+v", rep.Quarantined)
	}
}

// syntheticPlan builds a plan for the pure encode/decode tests — the
// checkpoint codec only consults the plan's injection descriptors, so
// no simulator is needed.
func syntheticPlan() []inject.Injection {
	var plan []inject.Injection
	for i := 0; i < 8; i++ {
		inj := inject.Injection{
			Zone:     i,
			Cycle:    3 * i,
			Duration: i % 2,
			Class:    inject.ExpClass(i % 3),
			Mode:     fmt.Sprintf("mode-%d", i),
		}
		switch i % 3 {
		case 0:
			inj.Fault = faults.NetSA(netlist.NetID(i), i%2 == 0)
		case 1:
			inj.Fault = faults.FFFlip(netlist.FFID(i))
		default:
			inj.Fault = faults.PinSA(netlist.GateID(i), i, true)
		}
		plan = append(plan, inj)
	}
	return plan
}

// syntheticCheckpoint pairs results and a quarantine record with the
// synthetic plan, exercising every record field including deviation
// lists and error strings.
func syntheticCheckpoint(plan []inject.Injection) *inject.Checkpoint {
	return &inject.Checkpoint{
		Results: []inject.IndexedResult{
			{PlanIndex: 0, Result: inject.ExpResult{
				Injection: plan[0], Outcome: inject.Silent, FirstDevCycle: -1,
			}},
			{PlanIndex: 2, Result: inject.ExpResult{
				Injection: plan[2], Outcome: inject.DangerousDetected, Sens: true,
				Deviated: []int{1, 4}, FirstDevCycle: 7,
			}},
			{PlanIndex: 5, Result: inject.ExpResult{
				Injection: plan[5], Outcome: inject.Aborted, FirstDevCycle: -1,
			}},
		},
		Quarantined: []inject.Quarantined{
			{PlanIndex: 3, Injection: plan[3], Attempts: 3, Err: "experiment panic: runtime error: index out of range"},
		},
	}
}

// TestCheckpointRoundTrip: encode → decode is the identity, and the
// encoding is canonical (unsorted input yields the same bytes).
func TestCheckpointRoundTrip(t *testing.T) {
	plan := syntheticPlan()
	ck := syntheticCheckpoint(plan)
	data := inject.EncodeCheckpoint(ck, plan)
	got, err := inject.DecodeCheckpoint(data, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, ck)
	}
	shuffled := &inject.Checkpoint{
		Results:     []inject.IndexedResult{ck.Results[2], ck.Results[0], ck.Results[1]},
		Quarantined: ck.Quarantined,
	}
	if !bytes.Equal(inject.EncodeCheckpoint(shuffled, plan), data) {
		t.Fatal("encoding is not canonical under input order")
	}
}

// TestCheckpointTruncationRejected: every strict prefix of a valid
// checkpoint must fail decoding with a *CheckpointError — never panic,
// never succeed.
func TestCheckpointTruncationRejected(t *testing.T) {
	plan := syntheticPlan()
	data := inject.EncodeCheckpoint(syntheticCheckpoint(plan), plan)
	for n := 0; n < len(data); n++ {
		ck, err := inject.DecodeCheckpoint(data[:n], plan)
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully: %#v", n, len(data), ck)
		}
		var ce *inject.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: got %T (%v), want *CheckpointError", n, err, err)
		}
	}
}

// TestCheckpointBitFlipRejected: every byte of the format is covered by
// a checksum or validated against the plan, so any single bit flip is
// detected. The sweep is exhaustive over all bits of the encoding.
func TestCheckpointBitFlipRejected(t *testing.T) {
	plan := syntheticPlan()
	data := inject.EncodeCheckpoint(syntheticCheckpoint(plan), plan)
	for bit := 0; bit < len(data)*8; bit++ {
		mutated := append([]byte(nil), data...)
		mutated[bit/8] ^= 1 << (bit % 8)
		ck, err := inject.DecodeCheckpoint(mutated, plan)
		if err == nil {
			t.Fatalf("bit flip at %d (byte %d) decoded successfully: %#v", bit, bit/8, ck)
		}
		var ce *inject.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("bit flip at %d: got %T (%v), want *CheckpointError", bit, err, err)
		}
	}
}

// TestCheckpointRandomCorruptionRejected: multi-byte corruption bursts
// (a torn sector, a bad download) are rejected too.
func TestCheckpointRandomCorruptionRejected(t *testing.T) {
	plan := syntheticPlan()
	data := inject.EncodeCheckpoint(syntheticCheckpoint(plan), plan)
	rng := rand.New(rand.NewSource(61508))
	for trial := 0; trial < 500; trial++ {
		mutated := append([]byte(nil), data...)
		burst := 1 + rng.Intn(16)
		for i := 0; i < burst; i++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		if bytes.Equal(mutated, data) {
			continue // XORs cancelled out
		}
		if _, err := inject.DecodeCheckpoint(mutated, plan); err == nil {
			t.Fatalf("trial %d: corrupted checkpoint decoded successfully", trial)
		}
	}
}

// TestCheckpointPlanMismatchRejected: a checkpoint never resumes
// against a different plan — wrong length, wrong content and wrong
// version are all versioned-format errors.
func TestCheckpointPlanMismatchRejected(t *testing.T) {
	plan := syntheticPlan()
	data := inject.EncodeCheckpoint(syntheticCheckpoint(plan), plan)

	if _, err := inject.DecodeCheckpoint(data, plan[:len(plan)-1]); err == nil {
		t.Fatal("shorter plan accepted")
	}
	mutated := append([]inject.Injection(nil), plan...)
	mutated[4].Cycle++
	if _, err := inject.DecodeCheckpoint(data, mutated); err == nil {
		t.Fatal("plan with a different injection accepted")
	}

	versioned := append([]byte(nil), data...)
	versioned[8] = 2 // bump the u16 version field after the 8-byte magic
	var ce *inject.CheckpointError
	if _, err := inject.DecodeCheckpoint(versioned, plan); !errors.As(err, &ce) {
		t.Fatalf("future version: got %v, want *CheckpointError", err)
	} else if ce.Version != 2 {
		t.Fatalf("future version error reports v%d, want v2", ce.Version)
	}

	if _, err := inject.LoadCheckpoint(filepath.Join(t.TempDir(), "corrupt.ckpt"), plan); !os.IsNotExist(err) {
		t.Fatalf("missing file: got %v, want os.IsNotExist", err)
	}
}

// FuzzDecodeCheckpoint: the loader must never panic on arbitrary
// bytes, must always fail with the typed *CheckpointError, and must
// accept only canonical encodings (anything it accepts re-encodes to
// the identical bytes — no silent wrong-state resume).
func FuzzDecodeCheckpoint(f *testing.F) {
	plan := syntheticPlan()
	valid := inject.EncodeCheckpoint(syntheticCheckpoint(plan), plan)
	f.Add(valid)
	f.Add(inject.EncodeCheckpoint(&inject.Checkpoint{}, plan))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add([]byte("FMEACKPT"))

	// Real-campaign corpus: checkpoints an actual supervised run
	// produces (full campaign state and a partial leased-range export —
	// the distributed protocol's interchange payload), plus a bit-flip
	// and a truncation of each, so the fuzzer starts from the encodings
	// the loader meets in production rather than only synthetic shapes.
	target, g, realPlan := reducedCampaign(f, true)
	full, err := target.RunRange(g, realPlan, 2, 0, len(realPlan))
	if err != nil {
		f.Fatal(err)
	}
	span, err := target.RunRange(g, realPlan, 2, 1, len(realPlan)/2)
	if err != nil {
		f.Fatal(err)
	}
	for _, real := range [][]byte{
		inject.EncodeCheckpoint(full, realPlan),
		inject.EncodeCheckpoint(span, realPlan),
	} {
		f.Add(real)
		f.Add(real[:len(real)-3])
		flipped := append([]byte(nil), real...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}

	// The decoder under fuzz is the one production runs: a codec built
	// once per plan, comparing against its stored hash.
	codecs := []inject.Codec{inject.NewCodec(plan), inject.NewCodec(realPlan)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			ck, err := c.Decode(data)
			if err != nil {
				var ce *inject.CheckpointError
				if !errors.As(err, &ce) {
					t.Fatalf("got %T (%v), want *CheckpointError", err, err)
				}
				continue
			}
			if re := c.Encode(ck); !bytes.Equal(re, data) {
				t.Fatalf("accepted a non-canonical encoding:\n in  %x\n out %x", data, re)
			}
		}
	})
}

// TestCodecPlanHash checks that a codec carries the fingerprint of the
// plan it was built from, and that the fingerprint tells plans apart.
func TestCodecPlanHash(t *testing.T) {
	plan := syntheticPlan()
	if got, want := inject.NewCodec(plan).PlanHash(), inject.PlanHash(plan); got != want {
		t.Fatalf("codec hash %#x, want PlanHash %#x", got, want)
	}
	if inject.PlanHash(plan) != inject.PlanHash(append([]inject.Injection(nil), plan...)) {
		t.Error("equal plans hash differently")
	}
	mutated := append([]inject.Injection(nil), plan...)
	mutated[0].Duration++
	if inject.PlanHash(mutated) == inject.PlanHash(plan) {
		t.Error("a changed injection left the hash unchanged")
	}
	if inject.PlanHash(plan[:len(plan)-1]) == inject.PlanHash(plan) {
		t.Error("a shorter plan left the hash unchanged")
	}
}
