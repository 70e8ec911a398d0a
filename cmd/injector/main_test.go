package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
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
		{"address width too large to simulate", []string{"-design", "v1", "-addr", "40"}, 1},
		{"unknown design", []string{"-design", "nope"}, 2},
		{"design without a DUT", []string{"-design", "rand"}, 2},
		{"unknown flag", []string{"-frobnicate"}, 2},
		{"negative workers", []string{"-design", "v1", "-workers", "-1"}, 2},
		{"negative count", []string{"-design", "v1", "-transient", "-1"}, 2},
		{"negative warmstart", []string{"-design", "v1", "-warmstart", "-1"}, 2},
		{"negative words", []string{"-design", "v1", "-addr", "4", "-words", "-5"}, 2},
		{"tolerance out of range", []string{"-design", "v1", "-addr", "4", "-tol", "-1"}, 2},
		{"tolerance not a number", []string{"-design", "v1", "-addr", "4", "-tol", "NaN"}, 2},
		{"resume without checkpoint", []string{"-design", "v1", "-resume"}, 2},
		{"worker without transport", []string{"worker", "-design", "v1"}, 2},
		{"worker with both transports", []string{"worker", "-connect", "127.0.0.1:1", "-stdio"}, 2},
		{"worker bad heartbeat", []string{"worker", "-stdio", "-heartbeat", "0s"}, 2},
		{"worker unknown flag", []string{"worker", "-frobnicate"}, 2},
		{"worker unknown design", []string{"worker", "-stdio", "-design", "nope"}, 2},
		{"worker design without a DUT", []string{"worker", "-stdio", "-design", "rand"}, 2},
		{"worker negative workers", []string{"worker", "-stdio", "-workers", "-1"}, 2},
		{"worker negative count", []string{"worker", "-stdio", "-wide", "-1"}, 2},
		{"worker negative warmstart", []string{"worker", "-stdio", "-warmstart", "-1"}, 2},
		{"worker negative words", []string{"worker", "-stdio", "-design", "v1", "-addr", "4", "-words", "-5"}, 2},
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
// diagnostics on stderr, so pipelines can separate report from noise —
// and stdout is, byte for byte, the three header lines over the
// canonical report of the campaign dist.Spec.Build builds from the same
// flags: the contract that lets cmd/campaignd and the workers reproduce
// it.
func TestReportGoesToStdout(t *testing.T) {
	for _, tc := range []struct {
		args []string
		spec dist.Spec
	}{
		{nil,
			dist.Spec{Design: "v2", AddrWidth: 6, Words: 8, Transient: 6, Permanent: 3, Wide: 12, Seed: 1}},
		{[]string{"-design", "v1", "-words", "4"},
			dist.Spec{Design: "v1", AddrWidth: 6, Words: 4, Transient: 6, Permanent: 3, Wide: 12, Seed: 1}},
		{[]string{"-design", "cpu-lockstep", "-transient", "1", "-permanent", "1", "-wide", "2", "-seed", "7", "-collapse", "-warmstart", "16"},
			dist.Spec{Design: "cpu-lockstep", AddrWidth: 6, Words: 8, Transient: 1, Permanent: 1, Wide: 2, Seed: 7}},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-workers", "2", "-require-coverage=false"}, tc.args...)
		if got := run(args, &out, &errb); got != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, got, errb.String())
		}
		c, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Target.Run(c.Golden, c.Plan)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		fmt.Fprintf(&want, "%s: workload %d cycles, %d zones\n", c.Name, c.Trace.Cycles(), len(c.Analysis.Zones))
		if ok, inactive := c.Golden.CompletenessOK(); ok {
			fmt.Fprintln(&want, "workload completeness: PASS (every zone triggered)")
		} else {
			fmt.Fprintf(&want, "WARNING: workload leaves %d zones untriggered\n", len(inactive))
		}
		fmt.Fprintf(&want, "running %d injection experiments on 2 worker(s)...\n", len(c.Plan))
		rep.WriteText(&want, c.Analysis, c.Worksheet, 0.35)
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Errorf("%v: stdout differs from the Spec-built campaign's report\n--- got\n%s--- want\n%s", tc.args, out.String(), want.String())
		}
	}
}
