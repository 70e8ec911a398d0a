package inject_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/inject"
	"repro/internal/injecttest"
	"repro/internal/telemetry"
)

// serialRows is the reference for any range: the rows [lo, hi) of the
// scalar reference campaign, as the checkpoint a range run must equal.
func serialRows(ref *inject.Report, lo, hi int) *inject.Checkpoint {
	ck := &inject.Checkpoint{}
	for i := lo; i < hi; i++ {
		ck.Results = append(ck.Results, inject.IndexedResult{PlanIndex: i, Result: ref.Results[i]})
	}
	return ck
}

// TestPreparedCollapsesOnce: a prepared campaign pays for the static
// pre-pass once, whatever the number of ranges run on it. Running the
// same ranges a second time re-simulates every row but not the
// quiescence replay, so the first pass costs exactly one trace length
// of simulated cycles more than the second, and the span journal holds
// one collapse span.
func TestPreparedCollapsesOnce(t *testing.T) {
	target, g, base := reducedCampaign(t, true)
	plan := collapsiblePlan(g, base)
	ref := injecttest.Reference(t, target, g.Trace, plan)

	var spans bytes.Buffer
	journal := telemetry.NewJournal(&spans, nil)
	tel := telemetry.NewCampaign(nil, nil)
	tel.Tracer = telemetry.NewTracer(journal, "test", 1)
	tgt := *target
	tgt.Collapse = true
	tgt.Telemetry = tel
	camp := tgt.Prepare(g, plan)
	cycles := tel.Registry.Counter("sim_cycles")
	pass := func() int64 {
		before := cycles.Load()
		for lo := 0; lo < len(plan); lo += 7 {
			hi := min(lo+7, len(plan))
			ck, err := camp.RunRange(2, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ck, serialRows(ref, lo, hi)) {
				t.Fatalf("range [%d,%d) differs from the reference rows", lo, hi)
			}
		}
		return cycles.Load() - before
	}
	first, second := pass(), pass()
	if got, want := first-second, int64(g.Trace.Cycles()); got != want {
		t.Fatalf("first pass simulated %d cycles more than the second, want one quiescence replay of %d", got, want)
	}
	if err := journal.Close(); err != nil { // flushes the buffered tail
		t.Fatal(err)
	}
	if n := strings.Count(spans.String(), `"name":"collapse"`); n != 1 {
		t.Fatalf("journal holds %d collapse spans over %d ranges, want 1", n, 2*(len(plan)+6)/7)
	}
}

// TestPreparedConcurrentRanges: one prepared campaign is shared read
// only — by the goroutines of one range and by ranges running at the
// same time, whichever of them builds the collapse table. Run under
// -race.
func TestPreparedConcurrentRanges(t *testing.T) {
	target, g, base := reducedCampaign(t, true)
	plan := collapsiblePlan(g, base)
	ref := injecttest.Reference(t, target, g.Trace, plan)
	wtgt, wg := warmGolden(t, target, g, 8)
	wtgt.Collapse = true
	wtgt.Lanes = 64
	camp := wtgt.Prepare(wg, plan)
	var ranges sync.WaitGroup
	for lo := 0; lo < len(plan); lo += 7 {
		lo, hi := lo, min(lo+7, len(plan))
		ranges.Add(1)
		go func() {
			defer ranges.Done()
			ck, err := camp.RunRange(2, lo, hi)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(ck, serialRows(ref, lo, hi)) {
				t.Errorf("range [%d,%d) differs from the reference rows", lo, hi)
			}
		}()
	}
	ranges.Wait()
}

// TestPreparedResumeSpan: run state is sized to the range, so a resume
// must take from the checkpoint only the records of its own span — and
// must still validate the whole file against the plan first.
func TestPreparedResumeSpan(t *testing.T) {
	target, g, plan := reducedCampaign(t, true)
	ref := injecttest.Reference(t, target, g.Trace, plan)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := inject.WriteCheckpoint(path, serialRows(ref, 0, len(plan)), plan); err != nil {
		t.Fatal(err)
	}
	lo, hi := len(plan)/3, 2*len(plan)/3

	tgt, tel, _ := instrumented(target)
	tgt.Supervision = inject.Supervision{Checkpoint: path, Resume: true}
	ck, err := tgt.RunRange(g, plan, 2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, serialRows(ref, lo, hi)) {
		t.Fatal("resumed range differs from the reference rows")
	}
	if got := tel.Registry.Gauge("preloaded").Load(); got != int64(hi-lo) {
		t.Fatalf("preloaded %d records into a span of %d", got, hi-lo)
	}
	if got := tel.Registry.Counter("exp_started").Load(); got != 0 {
		t.Fatalf("%d experiments ran although the checkpoint covers the span", got)
	}

	var ce *inject.CheckpointError
	other := append([]inject.Injection(nil), plan...)
	other[0].Cycle++ // outside the span: the whole file is still checked
	if _, err := tgt.RunRange(g, other, 2, lo, hi); !errors.As(err, &ce) {
		t.Fatalf("checkpoint of a different plan: got %v, want *CheckpointError", err)
	}
	if _, err := tgt.RunRange(g, plan[:len(plan)-1], 2, lo, hi); !errors.As(err, &ce) {
		t.Fatalf("checkpoint of a longer plan: got %v, want *CheckpointError", err)
	}
	// Same hash and length, one record's injection altered (its CRC and
	// the header made consistent again): the per-record check must fire.
	forged := serialRows(ref, 0, len(plan))
	forged.Results[len(plan)-1].Result.Injection.Cycle++
	if err := inject.WriteCheckpoint(path, forged, plan); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.RunRange(g, plan, 2, lo, hi); !errors.As(err, &ce) {
		t.Fatalf("record differing from the plan: got %v, want *CheckpointError", err)
	}
}
