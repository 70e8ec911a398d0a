package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the documented CI contract for both the campaign
// and worker entry points: 0 success, 1 fatal, 2 usage, 3 quarantined,
// 4 coverage incomplete.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"tiny clean campaign", []string{"-design", "v1", "-addr", "6", "-words", "2", "-transient", "1", "-permanent", "1", "-wide", "2", "-require-coverage=false"}, 0},
		{"tiny campaign fails coverage gate", []string{"-design", "v1", "-addr", "6", "-words", "2", "-transient", "1", "-permanent", "1", "-wide", "2"}, 4},
		{"unknown design", []string{"-design", "nope"}, 2},
		{"unknown flag", []string{"-frobnicate"}, 2},
		{"negative workers", []string{"-design", "v1", "-workers", "-1"}, 2},
		{"resume without checkpoint", []string{"-design", "v1", "-resume"}, 2},
		{"worker without transport", []string{"worker", "-design", "v1"}, 2},
		{"worker with both transports", []string{"worker", "-connect", "127.0.0.1:1", "-stdio"}, 2},
		{"worker bad heartbeat", []string{"worker", "-stdio", "-heartbeat", "0s"}, 2},
		{"worker unknown flag", []string{"worker", "-frobnicate"}, 2},
		{"worker unknown design", []string{"worker", "-stdio", "-design", "nope"}, 2},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if got := run(tc.args, &out, &errb); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, got, tc.want, errb.String())
		}
	}
}

// TestHelpDocumentsExitCodes: --help must exit 0 for both entry points
// and spell out every exit code scripts branch on.
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
		"3  experiment(s) quarantined",
		"4  campaign coverage incomplete",
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("campaign usage text missing %q:\n%s", want, usage)
		}
	}

	errb.Reset()
	if got := run([]string{"worker", "--help"}, &out, &errb); got != 0 {
		t.Fatalf("worker --help: exit %d, want 0", got)
	}
	usage = errb.String()
	for _, want := range []string{
		"Exit codes:",
		"0  campaign complete",
		"1  fatal error",
		"2  flag/usage error",
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("worker usage text missing %q:\n%s", want, usage)
		}
	}
}

// TestReportGoesToStdout: the campaign report renders on stdout,
// diagnostics on stderr, so pipelines can separate report from noise.
func TestReportGoesToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-design", "v1", "-addr", "6", "-words", "2", "-transient", "1", "-permanent", "1", "-wide", "2", "-require-coverage=false"}
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, errb.String())
	}
	if !strings.Contains(out.String(), "coverage: SENS") {
		t.Fatalf("stdout does not look like a campaign report:\n%s", out.String())
	}
}
