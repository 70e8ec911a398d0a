package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the usage-error contract; the success, kill and
// quarantine paths run as subprocess topologies in the dist-smoke CI
// job and in internal/dist's in-process matrix.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-frobnicate"}, 2},
		{"unknown design", []string{"-design", "nope"}, 2},
		{"design without a DUT", []string{"-design", "rand"}, 2},
		{"negative workers", []string{"-workers", "-1"}, 2},
		{"negative count", []string{"-permanent", "-1"}, 2},
		{"negative warmstart", []string{"-warmstart", "-1"}, 2},
		{"bad range size", []string{"-range", "0"}, 2},
		{"bad lease ttl", []string{"-lease-ttl", "0s"}, 2},
		{"bad max attempts", []string{"-max-attempts", "0"}, 2},
		{"zero backoff", []string{"-backoff", "0s"}, 2},
		{"negative backoff cap", []string{"-backoff-cap", "-1s"}, 2},
		{"zero tick", []string{"-tick", "0s"}, 2},
		{"deleted -adaptive flag", []string{"-adaptive"}, 2},
		{"spawn without worker-bin", []string{"-spawn", "2"}, 2},
		{"no execution path", []string{"-local=false"}, 2},
		{"tiny local-only campaign", []string{"-design", "v1", "-addr", "6", "-words", "2", "-transient", "1", "-permanent", "1", "-wide", "2", "-require-coverage=false"}, 0},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if got := run(tc.args, &out, &errb); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, got, tc.want, errb.String())
		}
	}
}

// TestHelpDocumentsExitCodes: --help exits 0 and documents the full
// exit-code contract.
func TestHelpDocumentsExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"--help"}, &out, &errb); got != 0 {
		t.Fatalf("--help: exit %d, want 0", got)
	}
	usage := errb.String()
	for _, want := range []string{
		"Exit codes:",
		"0  success",
		"1  fatal error",
		"2  flag/usage error",
		"3  plan rows quarantined",
		"4  campaign coverage incomplete",
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage text missing %q:\n%s", want, usage)
		}
	}
}

// TestWorkersZeroIsSerial: -workers 0 is cmd/injector's "serial" in the
// coordinator's local runner too — every leased range it runs reports
// one campaign goroutine in the journal, never one per CPU.
func TestWorkersZeroIsSerial(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "camp.jsonl")
	var out, errb bytes.Buffer
	args := []string{"-design", "v1", "-addr", "6", "-words", "2", "-transient", "1", "-permanent", "1", "-wide", "2",
		"-require-coverage=false", "-workers", "0", "-range", "8", "-journal", journal}
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, errb.String())
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, `"ev":"campaign_start"`) {
			continue
		}
		starts++
		if !strings.Contains(line, `"workers":1,`) {
			t.Errorf("a local range ran on more than one goroutine: %s", line)
		}
	}
	if starts == 0 {
		t.Fatalf("journal has no campaign_start event:\n%s", raw)
	}
}
