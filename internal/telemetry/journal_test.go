package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJournalEventStream drives one synthetic campaign through a
// journal and validates every line as JSON with the expected fields,
// sequence numbers and timestamps.
func TestJournalEventStream(t *testing.T) {
	var sb strings.Builder
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	j := NewJournal(&sb, func() time.Time { return now })
	c := NewCampaign(j, func() time.Time { return now })

	c.Phase("golden")
	c.PlanBuilt(2, 1, 0xdeadbeef)
	st := c.ExpStart(0)
	c.ExpFinish(0, "detected-safe", true, 1, 42, st)
	c.Retry(1, 1, `panic: "quoted"`+"\nnewline")
	c.Quarantine(1, 2, "gave up")
	c.CheckpointWrite(2)
	c.Summary()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	wantEv := []string{
		EvPhase, EvCampaignStart, EvExpStart, EvExpFinish, EvRetry,
		EvQuarantine, EvCheckpointSave, EvSummary,
	}
	if len(lines) != len(wantEv) {
		t.Fatalf("journal has %d lines, want %d:\n%s", len(lines), len(wantEv), sb.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if got := m["ev"]; got != wantEv[i] {
			t.Fatalf("line %d ev = %v, want %s", i+1, got, wantEv[i])
		}
		if got := m["seq"]; got != float64(i+1) {
			t.Fatalf("line %d seq = %v, want %d", i+1, got, i+1)
		}
		if got := m["ts"]; got != "2026-08-05T12:00:00Z" {
			t.Fatalf("line %d ts = %v", i+1, got)
		}
	}

	var fin map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &fin); err != nil {
		t.Fatal(err)
	}
	if fin["outcome"] != "detected-safe" || fin["sens"] != true || fin["first_dev"] != float64(42) {
		t.Fatalf("exp_finish fields = %v", fin)
	}
	var retry map[string]any
	if err := json.Unmarshal([]byte(lines[4]), &retry); err != nil {
		t.Fatalf("retry line with escaped error is invalid JSON: %v", err)
	}
	if retry["err"] != `panic: "quoted"`+"\nnewline" {
		t.Fatalf("retry err round-trip = %q", retry["err"])
	}
	var sum map[string]any
	if err := json.Unmarshal([]byte(lines[7]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum["done"] != float64(2) || sum["quarantined"] != float64(1) || sum["n_detected_safe"] != float64(1) {
		t.Fatalf("summary fields = %v", sum)
	}
}

// TestJournalNoClockOmitsTS: without a clock no ts field may appear —
// the deterministic-journal configuration used by the neutrality test.
func TestJournalNoClockOmitsTS(t *testing.T) {
	var sb strings.Builder
	j := NewJournal(&sb, nil)
	j.Emit(EvPhase, func(e *Enc) { e.Str("name", "x") })
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"ts"`) {
		t.Fatalf("clockless journal emitted a timestamp: %s", sb.String())
	}
	if want := `{"seq":1,"ev":"phase","name":"x"}` + "\n"; sb.String() != want {
		t.Fatalf("line = %q, want %q", sb.String(), want)
	}
}

// TestOpenJournalFile round-trips a journal through a real file.
func TestOpenJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(EvSummary, func(e *Enc) { e.Int("done", 1) })
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line: %v", err)
		}
	}
	if n != 1 {
		t.Fatalf("file has %d lines, want 1", n)
	}
}

// TestJournalConcurrentEmit: concurrent emitters must produce whole,
// valid lines with a strictly monotonic seq (order across goroutines
// is unspecified, but no line may tear or repeat a seq).
func TestJournalConcurrentEmit(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	j := NewJournal(w, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Emit(EvExpStart, func(e *Enc) { e.Int("i", int64(g*100+i)) })
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("%d lines, want 800", len(lines))
	}
	seen := map[float64]bool{}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		seq := m["seq"].(float64)
		if seen[seq] {
			t.Fatalf("seq %v repeated", seq)
		}
		seen[seq] = true
	}
	for i := 1; i <= 800; i++ {
		if !seen[float64(i)] {
			t.Fatalf("seq %d missing", i)
		}
	}
}

// TestEmitPanicReleasesJournal: a fields/attrs closure that panics
// mid-line must not wedge the journal — the half-built line (corrupt
// JSON by construction) is discarded, the sequence number reclaimed
// and the mutex released, so the panic propagates to the caller while
// every later emit still works.
func TestEmitPanicReleasesJournal(t *testing.T) {
	var sb strings.Builder
	j := NewJournal(&sb, nil)
	tr := NewTracer(j, "p", 0xab)

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: panic did not propagate", what)
			}
		}()
		fn()
	}
	mustPanic("Emit", func() {
		j.Emit(EvPhase, func(e *Enc) { e.Str("name", "doomed"); panic("boom") })
	})
	mustPanic("StartAttrs", func() {
		tr.StartAttrs("doomed", Span{}, func(e *Enc) { panic("boom") })
	})

	// The journal is still healthy: next emit succeeds and the stream
	// holds only complete lines with contiguous seqs.
	j.Emit(EvPhase, func(e *Enc) { e.Str("name", "after") })
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		if seq := m["seq"].(float64); seq != float64(i+1) {
			t.Fatalf("line %d has seq %v, want %d (aborted lines must reclaim their seq)", i, seq, i+1)
		}
		if name, _ := m["name"].(string); name == "doomed" {
			t.Fatalf("aborted line was written: %q", line)
		}
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"name":"after"`) {
		t.Fatalf("post-panic emit missing, last line %q", last)
	}
}
