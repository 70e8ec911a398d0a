package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanJournalStream pins the span event wire format: exact lines
// for a root span, a child, a remote child and their ends.
func TestSpanJournalStream(t *testing.T) {
	var sb strings.Builder
	j := NewJournal(&sb, nil)
	tr := NewTracer(j, "w1", 0xabcd)

	root := tr.Start("campaign", Span{})
	child := tr.StartAttrs("lease", root, func(e *Enc) { e.Int("lo", 0); e.Int("hi", 32) })
	remote := tr.start("worker-lease", 0, 7, "lease", 3, nil)
	remote.EndOutcome("done")
	child.End()
	root.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	want := strings.Join([]string{
		`{"seq":1,"ev":"span_start","trace":"000000000000abcd","span":1,"name":"campaign","proc":"w1"}`,
		`{"seq":2,"ev":"span_start","trace":"000000000000abcd","span":2,"parent":1,"name":"lease","proc":"w1","lo":0,"hi":32}`,
		`{"seq":3,"ev":"span_start","trace":"000000000000abcd","span":3,"rparent":7,"name":"worker-lease","proc":"w1","lease":3}`,
		`{"seq":4,"ev":"span_end","span":3,"outcome":"done"}`,
		`{"seq":5,"ev":"span_end","span":2}`,
		`{"seq":6,"ev":"span_end","span":1}`,
	}, "\n") + "\n"
	if sb.String() != want {
		t.Fatalf("span journal:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestSpanNilSafe: nil tracers and zero spans must be inert everywhere.
func TestSpanNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", Span{})
	if sp.Valid() {
		t.Fatal("nil tracer produced a valid span")
	}
	sp.End()
	sp.EndOutcome("done")
	tr.Adopt("0000000000000001")
	if tr.TraceHex() != "" {
		t.Fatal("nil tracer leaked a trace id")
	}
	var c *Campaign
	c.SetTraceRoot(Span{})
	c.PhaseDone()
	if c.StartSpan("x").Valid() || c.StartSpanInt("x", "k", 1).Valid() {
		t.Fatal("nil campaign produced a valid span")
	}
	if _, ok := c.TraceContext(); ok {
		t.Fatal("nil campaign reported live trace context")
	}
	// A hub without a tracer is equally inert.
	hub := NewCampaign(nil, nil)
	if hub.StartSpan("x").Valid() {
		t.Fatal("tracer-less hub produced a valid span")
	}
}

// TestTraceID: deterministic, part-sensitive, separator-sensitive.
func TestTraceID(t *testing.T) {
	if TraceID("dist", "v2", "7") != TraceID("dist", "v2", "7") {
		t.Fatal("TraceID not deterministic")
	}
	if TraceID("a", "b") == TraceID("ab") {
		t.Fatal("part boundaries not separated")
	}
	if TraceID("a", "b") == TraceID("a", "c") {
		t.Fatal("distinct parts collide")
	}
}

// TestTraceHexAdopt round-trips a trace id through its wire form.
func TestTraceHexAdopt(t *testing.T) {
	a := NewTracer(NewJournal(&strings.Builder{}, nil), "a", TraceID("x"))
	b := NewTracer(NewJournal(&strings.Builder{}, nil), "b", 1)
	hex := a.TraceHex()
	if len(hex) != 16 {
		t.Fatalf("TraceHex = %q, want 16 digits", hex)
	}
	b.Adopt(hex)
	if b.TraceHex() != hex {
		t.Fatalf("adopt: %s != %s", b.TraceHex(), hex)
	}
	b.Adopt("not-hex")
	b.Adopt("")
	if b.TraceHex() != hex {
		t.Fatal("malformed adopt must not clobber the trace")
	}
}

// TestCampaignAmbientSpans exercises the hub integration: phase spans
// chain under the root, batch spans parent under the open phase (an
// experiment is journal events only, no span), Summary closes the last
// phase, and SetTraceRoot re-roots.
func TestCampaignAmbientSpans(t *testing.T) {
	var sb strings.Builder
	j := NewJournal(&sb, nil)
	c := NewCampaign(nil, nil)
	c.Tracer = NewTracer(j, "p", 1)

	root := c.Tracer.Start("campaign", Span{})
	c.SetTraceRoot(root)
	c.Phase("build")    // span 2, parent 1
	c.Phase("golden")   // ends 2, span 3, parent 1
	tk := c.ExpStart(5) // no span
	c.ExpFinish(5, "silent", false, 0, -1, tk)
	bs := c.BatchStart(48) // span 4, parent 3
	c.BatchDone(bs, 48)
	c.Summary() // ends 3
	root.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		Ev     string `json:"ev"`
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		I      int64  `json:"i"`
		Lanes  int64  `json:"lanes"`
	}
	var recs []rec
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	wantStarts := map[uint64]rec{
		2: {Name: "build", Parent: 1},
		3: {Name: "golden", Parent: 1},
		4: {Name: "batch", Parent: 3, Lanes: 48},
	}
	ends := map[uint64]int{}
	for _, r := range recs {
		switch r.Ev {
		case EvSpanStart:
			if w, ok := wantStarts[r.Span]; ok {
				if r.Name != w.Name || r.Parent != w.Parent || r.I != w.I || r.Lanes != w.Lanes {
					t.Fatalf("span %d = %+v, want %+v", r.Span, r, w)
				}
			}
		case EvSpanEnd:
			ends[r.Span]++
		}
	}
	if len(ends) != 4 {
		t.Fatalf("%d spans ended, want 4 (ends=%v)", len(ends), ends)
	}
	for sp := uint64(1); sp <= 4; sp++ {
		if ends[sp] != 1 {
			t.Fatalf("span %d ended %d times, want once (ends=%v)", sp, ends[sp], ends)
		}
	}
}

// TestSpanHotPathAllocFree: span start/end on a clockless journal must
// not allocate — the tracing hot path shares the journal's reused
// buffer and never builds a closure.
func TestSpanHotPathAllocFree(t *testing.T) {
	j := NewJournal(discard{}, nil)
	tr := NewTracer(j, "p", 1)
	c := NewCampaign(nil, nil)
	c.Tracer = tr
	root := tr.Start("campaign", Span{})
	c.SetTraceRoot(root)
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.start("exp", root.id, 0, "i", 7, nil)
		sp.EndOutcome("silent")
	}); n > 0 {
		t.Fatalf("span start/end allocates %.1f per op, want 0", n)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestExpTicketCarriesWall: the ticket keeps ExpFinish's wall-clock
// histogram working exactly as the pre-span time.Time return did.
func TestExpTicketCarriesWall(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewCampaign(nil, func() time.Time { return now })
	tk := c.ExpStart(0)
	now = now.Add(250 * time.Millisecond)
	c.ExpFinish(0, "silent", false, 0, -1, tk)
	h := c.Registry.Histogram("exp_wall_us")
	if h.Count() != 1 || h.Sum() != 250_000 {
		t.Fatalf("exp_wall_us count/sum = %d/%d, want 1/250000", h.Count(), h.Sum())
	}
}
