// Command injector runs the Fig. 4 fault-injection validation campaign
// against a design from the catalogue (internal/designs): golden run,
// operational-profile-guided fault list, per-zone measured S/DDF,
// coverage items, effect-table consistency and the cross-check against
// the worksheet. -h lists the flags; internal/cli owns the ones it
// shares with cmd/campaignd and cmd/served.
//
// Every worker runs up to 64 experiments bit-parallel in one machine
// word on the compiled simulation kernel (internal/simc). Warm start
// (golden snapshots every N cycles) and the static collapse pre-pass
// (internal/statfault: provable verdicts skip simulation, equivalent
// experiments share one) are throughput knobs: the report is
// byte-identical with either on or off.
//
// Campaign execution is supervised: per-experiment watchdogs, retry +
// quarantine of failing experiments, and deterministic checkpoint/
// resume — a resumed campaign's report is byte-identical to an
// uninterrupted run.
//
// Campaign execution is also observable, strictly out-of-band (the
// stdout report stays byte-identical with every option off or on): a
// JSONL lifecycle journal (validated by tools/checkjournal), a JSONL
// span journal (cmd/tracer), periodic stderr progress lines, and a
// loopback status server with /progress, /metrics, /metrics.json and
// net/http/pprof.
//
// "injector worker" joins a distributed campaign instead of running
// one: it builds the same campaign locally from the same spec flags,
// connects to a cmd/campaignd coordinator (over TCP, or its own
// stdin/stdout as a subprocess) and runs leased plan ranges through
// the supervised engine until the coordinator says the campaign is
// done.
//
// Exit codes are the CI contract, documented in --help: 0 success;
// 1 fatal error; 2 flag/usage error; 3 experiments quarantined
// (campaign degraded); 4 campaign coverage incomplete.
package main

import (
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/inject"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches between the standalone campaign and the distributed
// worker mode and returns the process exit code; keeping os.Exit out
// of the work path lets the telemetry teardown (journal flush, final
// progress line, status-server close) run on every exit.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "worker" {
		return runWorker(args[1:], stderr)
	}
	return runCampaign(args, stdout, stderr)
}

const campaignAbout = `usage: injector [flags]
       injector worker [flags]   (join a cmd/campaignd distributed campaign; see injector worker -h)

Fault-injection validation campaign: golden run, per-zone measured S/DDF,
coverage and the cross-check against the FMEA worksheet.

Exit codes:
  0  success
  1  fatal error (build, golden run, campaign or I/O failure)
  2  flag/usage error
  3  experiment(s) quarantined (campaign degraded)
  4  campaign coverage incomplete (with -require-coverage)
`

func runCampaign(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("injector", campaignAbout,
		cli.Spec|cli.Workers|cli.Collapse|cli.Supervision|cli.Trace|cli.Observe|cli.Report, stderr)
	fs := cmd.Flags
	vcd := fs.String("vcd", "", "record golden + first-undetected-fault waveforms to <prefix>_{golden,faulty}.vcd")
	checkpoint := fs.String("checkpoint", "", "campaign checkpoint file (enables periodic checkpointing)")
	checkpointEvery := fs.Int("checkpoint-every", 16, "completed experiments between checkpoint writes")
	resume := fs.Bool("resume", false, "resume from -checkpoint; the merged report is byte-identical to an uninterrupted run")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}
	switch {
	case *checkpointEvery < 1:
		return cmd.UsageErr("-checkpoint-every must be >= 1, got %d", *checkpointEvery)
	case *resume && *checkpoint == "":
		return cmd.UsageErr("-resume requires -checkpoint")
	}

	tel, closeHub, err := cmd.OpenHub("injector", "campaign")
	if err != nil {
		return cmd.Fatal(err)
	}
	defer closeHub()

	c, err := cmd.Spec.BuildObserved(tel)
	if err != nil {
		return cmd.Fatal(err)
	}
	cmd.Engine(c.Target)
	c.Target.Supervision.Checkpoint = *checkpoint
	c.Target.Supervision.CheckpointEvery = *checkpointEvery
	c.Target.Supervision.Resume = *resume

	fmt.Fprintf(stdout, "%s: workload %d cycles, %d zones\n", c.Name, c.Trace.Cycles(), len(c.Analysis.Zones))
	if ok, inactive := c.Golden.CompletenessOK(); !ok {
		fmt.Fprintf(stdout, "WARNING: workload leaves %d zones untriggered\n", len(inactive))
	} else {
		fmt.Fprintln(stdout, "workload completeness: PASS (every zone triggered)")
	}
	if *resume {
		cmd.Log.Printf("resuming from checkpoint %s (plan hash %016x)", *checkpoint, inject.PlanHash(c.Plan))
	}
	fmt.Fprintf(stdout, "running %d injection experiments on %d worker(s)...\n", len(c.Plan), cmd.RangeWorkers())
	tel.Phase("campaign")
	rep, err := c.Target.Run(c.Golden, c.Plan)
	if err != nil {
		return cmd.Fatal(err)
	}
	tel.Phase("analysis")

	if err := cmd.WriteReport(stdout, c, rep); err != nil {
		return cmd.Fatal(err)
	}
	if *vcd != "" {
		if err := recordVCDs(stdout, *vcd, c.Target, c.Golden, rep); err != nil {
			return cmd.Fatal(err)
		}
	}
	return cmd.ExitCode(rep)
}

const workerAbout = `usage: injector worker (-connect host:port | -stdio) [flags]

Join a cmd/campaignd distributed campaign as a worker. The campaign spec
flags (-design, -addr, -words, -transient, -permanent, -wide, -seed) must
match the coordinator's; the plan fingerprint is validated at connect.

Exit codes:
  0  campaign complete (coordinator sent fin)
  1  fatal error (build failure, connection loss, coordinator rejection)
  2  flag/usage error
`

// runWorker joins a distributed campaign: build the same campaign
// locally (the coordinator validates the plan fingerprint at hello),
// then run leased ranges until fin. The protocol runs over TCP
// (-connect) or this process's stdin/stdout (-stdio); in -stdio mode
// every human-readable line goes to stderr.
func runWorker(args []string, stderr io.Writer) int {
	cmd := cli.New("injector worker", workerAbout,
		cli.Spec|cli.Workers|cli.Collapse|cli.Supervision|cli.Trace|cli.Join, stderr)
	if code, ok := cmd.Parse(args); !ok {
		return code
	}
	name := cmd.Name
	if name == "" {
		name = fmt.Sprintf("pid%d", os.Getpid())
	}

	// One hub shared between the protocol loop and the injection
	// target, so each leased range's experiment and batch spans nest
	// under the worker-lease span, which in turn parents — across the
	// wire — under the coordinator's lease span. The trace id is seeded
	// from the spec (every process in one campaign derives the same id)
	// and confirmed from the first lease message.
	tel, closeHub, err := cmd.OpenHub(name, "worker")
	if err != nil {
		return cmd.Fatal(err)
	}
	defer closeHub()

	c, err := cmd.Spec.BuildObserved(tel)
	if err != nil {
		return cmd.Fatal(err)
	}
	cmd.Engine(c.Target)

	var rw io.ReadWriteCloser
	if cmd.Stdio {
		rw = stdioConn{os.Stdin, os.Stdout}
	} else {
		conn, err := net.Dial("tcp", cmd.Connect)
		if err != nil {
			return cmd.Fatal(err)
		}
		rw = conn
	}
	cmd.Log.Printf("joined campaign as %q (%d experiments in plan)", name, len(c.Plan))
	err = dist.RunWorker(rw, dist.WorkerConfig{
		Name:      name,
		Target:    c.Target,
		Golden:    c.Golden,
		Plan:      c.Plan,
		Workers:   cmd.RangeWorkers(),
		Heartbeat: cmd.Heartbeat,
		Telemetry: tel,
		Logf:      cmd.Log.Printf,
	})
	if err != nil {
		return cmd.Fatal(err)
	}
	return 0
}

// stdioConn adapts the process's stdin/stdout pipes to the protocol's
// stream interface for subprocess workers.
type stdioConn struct {
	io.Reader
	io.Writer
}

func (stdioConn) Close() error { return nil }

// recordVCDs dumps the golden waveform plus the first dangerous-
// undetected experiment's faulty waveform for debugging.
func recordVCDs(stdout io.Writer, prefix string, target *inject.Target, g *inject.Golden, rep *inject.Report) error {
	write := func(path string, inj *inject.Injection) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := target.RecordVCD(g, inj, f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil
	}
	if err := write(prefix+"_golden.vcd", nil); err != nil {
		return err
	}
	for i := range rep.Results {
		if rep.Results[i].Outcome == inject.DangerousUndetected {
			return write(prefix+"_faulty.vcd", &rep.Results[i].Injection)
		}
	}
	if len(rep.Results) > 0 {
		return write(prefix+"_faulty.vcd", &rep.Results[0].Injection)
	}
	return nil
}
