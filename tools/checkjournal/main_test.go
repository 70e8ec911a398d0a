package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fixedClock is a deterministic strictly-advancing clock.
func fixedClock() func() time.Time {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// TestCheckAcceptsRealJournal: a journal emitted by the telemetry
// package itself must validate — this test is the contract tying the
// checker's schema table to the producer.
func TestCheckAcceptsRealJournal(t *testing.T) {
	var buf bytes.Buffer
	fixed := fixedClock()
	j := telemetry.NewJournal(&buf, fixed)
	c := telemetry.NewCampaign(j, fixed)
	c.Phase("campaign")
	c.PlanBuilt(4, 2, 0xdeadbeef)
	start := c.ExpStart(0)
	c.ExpFinish(0, "silent", false, 0, -1, start)
	start = c.ExpStart(1)
	c.ExpFinish(1, "dangerous-detected", true, 3, 17, start)
	c.Retry(2, 1, `panic: "quoted"`)
	c.Quarantine(2, 2, "still failing")
	c.CheckpointWrite(3)
	c.CheckpointLoad(2, 1)
	c.Summary()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var diags bytes.Buffer
	bad, lines, err := check(&buf, &diags)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("real journal flagged invalid:\n%s", diags.String())
	}
	if lines != 11 {
		t.Fatalf("checked %d lines, want 11", lines)
	}
}

// TestCheckAcceptsRealSpanJournal: a span journal emitted by the real
// tracer — root, phases, remote-parented lease span, batch span,
// interleaved with lifecycle events — must validate, including the
// structural open/close and parent-before-child checks.
func TestCheckAcceptsRealSpanJournal(t *testing.T) {
	var buf bytes.Buffer
	fixed := fixedClock()
	j := telemetry.NewJournal(&buf, fixed)
	c := telemetry.NewCampaign(j, fixed)
	c.Tracer = telemetry.NewTracer(j, "coordinator", telemetry.TraceID("checkjournal"))

	root := c.StartSpan("campaign")
	c.SetTraceRoot(root)
	c.Phase("golden-run") // lifecycle event interleaves with spans
	lease := c.StartSpanAttrs("lease", func(e *telemetry.Enc) {
		e.Int("lease", 1)
		e.Int("lo", 0)
		e.Int("hi", 8)
	})
	wl := c.StartRemoteSpan("worker-lease", c.Tracer.TraceHex(), lease.ID(), nil)
	b := c.BatchStart(8)
	tk := c.ExpStart(0)
	c.ExpFinish(0, "silent", false, 0, -1, tk)
	c.BatchDone(b, 8)
	wl.EndOutcome("done")
	lease.EndOutcome("done")
	c.PhaseDone()
	root.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var diags bytes.Buffer
	bad, _, err := check(&buf, &diags)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("real span journal flagged invalid:\n%s", diags.String())
	}
}

// TestCheckSpanStructure pins the structural span diagnostics.
func TestCheckSpanStructure(t *testing.T) {
	cases := []struct {
		name, lines, wantDiag string
	}{
		{"zero-id",
			`{"seq":1,"ev":"span_start","trace":"00000000000000ab","span":0,"name":"x","proc":"p"}`,
			"zero span id"},
		{"bad-trace",
			`{"seq":1,"ev":"span_start","trace":"XYZ","span":1,"name":"x","proc":"p"}`,
			"not 16 lowercase hex"},
		{"double-open",
			`{"seq":1,"ev":"span_start","trace":"00000000000000ab","span":1,"name":"x","proc":"p"}` + "\n" +
				`{"seq":2,"ev":"span_start","trace":"00000000000000ab","span":1,"name":"y","proc":"p"}` + "\n" +
				`{"seq":3,"ev":"span_end","span":1}`,
			"opened twice"},
		{"end-before-start",
			`{"seq":1,"ev":"span_end","span":7}`,
			"never opened"},
		{"double-close",
			`{"seq":1,"ev":"span_start","trace":"00000000000000ab","span":1,"name":"x","proc":"p"}` + "\n" +
				`{"seq":2,"ev":"span_end","span":1}` + "\n" +
				`{"seq":3,"ev":"span_end","span":1}`,
			"closed twice"},
		{"parent-not-started",
			`{"seq":1,"ev":"span_start","trace":"00000000000000ab","span":2,"parent":9,"name":"x","proc":"p"}` + "\n" +
				`{"seq":2,"ev":"span_end","span":2}`,
			"which has not started"},
		{"unclosed-at-eof",
			`{"seq":1,"ev":"span_start","trace":"00000000000000ab","span":1,"name":"x","proc":"p"}`,
			"never closed"},
		{"outcome-wrong-type",
			`{"seq":1,"ev":"span_start","trace":"00000000000000ab","span":1,"name":"x","proc":"p"}` + "\n" +
				`{"seq":2,"ev":"span_end","span":1,"outcome":3}`,
			`field "outcome" is not a string`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var diags bytes.Buffer
			bad, _, err := check(strings.NewReader(tc.lines+"\n"), &diags)
			if err != nil {
				t.Fatal(err)
			}
			if bad == 0 {
				t.Fatal("malformed span stream accepted")
			}
			if !strings.Contains(diags.String(), tc.wantDiag) {
				t.Fatalf("diagnostic %q does not contain %q", diags.String(), tc.wantDiag)
			}
		})
	}
}

// TestCheckRejects pins one diagnostic per malformed-line class.
func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name, line, wantDiag string
	}{
		{"not-json", `garbage`, "not a JSON object"},
		{"no-seq", `{"ev":"phase","name":"x"}`, `missing numeric "seq"`},
		{"seq-gap", `{"seq":5,"ev":"phase","name":"x"}`, "want 1"},
		{"bad-ts", `{"seq":1,"ts":"noon","ev":"phase","name":"x"}`, "bad timestamp"},
		{"no-ev", `{"seq":1,"name":"x"}`, `missing string "ev"`},
		{"unknown-ev", `{"seq":1,"ev":"reboot"}`, `unknown event "reboot"`},
		{"missing-field", `{"seq":1,"ev":"exp_finish","i":0}`, `missing field "outcome"`},
		{"wrong-type", `{"seq":1,"ev":"phase","name":7}`, `field "name" is not a string`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var diags bytes.Buffer
			bad, lines, err := check(strings.NewReader(tc.line+"\n"), &diags)
			if err != nil {
				t.Fatal(err)
			}
			if bad == 0 || lines != 1 {
				t.Fatalf("bad=%d lines=%d, want a single flagged line", bad, lines)
			}
			if !strings.Contains(diags.String(), tc.wantDiag) {
				t.Fatalf("diagnostic %q does not contain %q", diags.String(), tc.wantDiag)
			}
		})
	}
}

// TestCheckEmptyStream: an empty journal is valid (zero events).
func TestCheckEmptyStream(t *testing.T) {
	bad, lines, err := check(strings.NewReader(""), io.Discard)
	if err != nil || bad != 0 || lines != 0 {
		t.Fatalf("empty stream: bad=%d lines=%d err=%v", bad, lines, err)
	}
}
