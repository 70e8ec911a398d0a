package cli

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// The group sets the campaign front ends register (cmd/injector,
// "injector worker", cmd/campaignd).
var frontEnds = map[string]Group{
	"injector":        Spec | Workers | Collapse | Supervision | Trace | Observe | Report,
	"injector worker": Spec | Workers | Collapse | Supervision | Trace | Join,
	"campaignd":       Spec | Workers | Collapse | Trace | Observe | Report,
}

// TestWorkerArgsRoundTrip: Spec → argv → parse → Spec is the identity,
// so what campaignd hands a spawned worker can never drift from the
// flag set the worker registers.
func TestWorkerArgsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	designs := []string{"v1", "v2", "cpu", "cpu-lockstep"}
	for i := 0; i < 200; i++ {
		sp := dist.Spec{
			Design:    designs[rng.Intn(len(designs))],
			AddrWidth: rng.Intn(12),
			Words:     1 + rng.Intn(299),
			Transient: rng.Intn(64),
			Permanent: rng.Intn(64),
			Wide:      rng.Intn(256),
			Seed:      rng.Uint64(),
			Warmstart: rng.Intn(1024),
		}
		trace := ""
		if i%2 == 1 {
			trace = "spans.jsonl.spawn3"
		}
		argv := WorkerArgs(sp, "spawn3", trace)
		if argv[0] != "worker" {
			t.Fatalf("argv[0] = %q, want the worker mode word", argv[0])
		}
		var errb bytes.Buffer
		w := New("injector worker", "", frontEnds["injector worker"], &errb)
		if code, ok := w.Parse(argv[1:]); !ok {
			t.Fatalf("spec %+v: argv %v does not parse: exit %d\n%s", sp, argv, code, errb.String())
		}
		if w.Spec != sp || !w.Stdio || w.Connect != "" || w.Name != "spawn3" || w.TracePath != trace ||
			w.Heartbeat != 2*time.Second {
			t.Fatalf("spec %+v: argv %v parsed back to %+v", sp, argv, w)
		}
	}
}

// TestRangeEdgesAccepted: the edges of the checked ranges are valid
// values, and a front end without the Spec group is not held to -words.
func TestRangeEdgesAccepted(t *testing.T) {
	for _, args := range [][]string{
		{"-words", "1"},
		{"-tol", "0"},
		{"-tol", "1"},
	} {
		var errb bytes.Buffer
		c := New("injector", "", frontEnds["injector"], &errb)
		if code, ok := c.Parse(args); !ok {
			t.Errorf("injector %v: exit %d, want accepted\n%s", args, code, errb.String())
		}
	}
	var errb bytes.Buffer
	if code, ok := New("served", "", Collapse, &errb).Parse(nil); !ok {
		t.Errorf("served: exit %d, want accepted\n%s", code, errb.String())
	}
}

// TestWorkersZeroIsSerial: -workers means one thing in every front
// end: 0 is serial, never "one per CPU".
func TestWorkersZeroIsSerial(t *testing.T) {
	for name, groups := range frontEnds {
		for _, tc := range []struct {
			args []string
			want int
		}{
			{nil, runtime.NumCPU()},
			{[]string{"-workers", "0"}, 1},
			{[]string{"-workers", "1"}, 1},
			{[]string{"-workers", "3"}, 3},
		} {
			c := New(name, "", groups&^Join, io.Discard)
			if _, ok := c.Parse(tc.args); !ok {
				t.Fatalf("%s %v: does not parse", name, tc.args)
			}
			if got := c.RangeWorkers(); got != tc.want {
				t.Errorf("%s %v: %d campaign goroutine(s), want %d", name, tc.args, got, tc.want)
			}
		}
	}
}

// TestSharedFlagRejection: every out-of-range value of a shared flag is
// a usage error (exit 2, usage printed) in every front end that
// registers the flag, and an unregistered flag is unknown there.
func TestSharedFlagRejection(t *testing.T) {
	bad := []struct {
		group Group
		args  []string
	}{
		{Spec, []string{"-design", "nope"}},
		{Spec, []string{"-design", "rand"}},
		{Spec, []string{"-design", ""}},
		{Spec, []string{"-words", "-5"}},
		{Spec, []string{"-words", "0"}},
		{Spec, []string{"-transient", "-1"}},
		{Spec, []string{"-permanent", "-1"}},
		{Spec, []string{"-wide", "-1"}},
		{Spec, []string{"-warmstart", "-1"}},
		{Workers, []string{"-workers", "-1"}},
		{Supervision, []string{"-exp-cycle-budget", "-1"}},
		{Supervision, []string{"-exp-timeout", "-1s"}},
		{Supervision, []string{"-retries", "-1"}},
		{Observe, []string{"-progress", "-1s"}},
		{Report, []string{"-tol", "-0.1"}},
		{Report, []string{"-tol", "1.5"}},
		{Report, []string{"-tol", "NaN"}},
		{Join, []string{"-heartbeat", "0s"}},
		{Join, []string{"-connect", "127.0.0.1:1"}}, // with the -stdio below: both transports
	}
	for name, groups := range frontEnds {
		for _, tc := range bad {
			args := tc.args
			if groups&Join != 0 {
				args = append([]string{"-stdio"}, args...)
			}
			var errb bytes.Buffer
			c := New(name, "usage: "+name+"\n", groups, &errb)
			code, ok := c.Parse(args)
			if ok || code != 2 || !strings.Contains(errb.String(), "usage: "+name) {
				t.Errorf("%s %v: ok=%v exit %d, want a usage error\n%s", name, args, ok, code, errb.String())
			}
			if registered := groups&tc.group != 0; registered == strings.Contains(errb.String(), "flag provided but not defined") {
				t.Errorf("%s %v: group registered=%v but stderr says\n%s", name, args, registered, errb.String())
			}
		}
	}
}
