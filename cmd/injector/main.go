// Command injector runs the Fig. 4 fault-injection validation campaign
// against a memory sub-system implementation: golden run, operational-
// profile-guided fault list, per-zone measured S/DDF, coverage items,
// effect-table consistency and the cross-check against the worksheet.
//
// Every worker runs up to 64 experiments bit-parallel in one machine
// word on the compiled simulation kernel (internal/simc). With
// -warmstart N the golden run captures a state snapshot every N cycles
// and each batch resumes from the snapshot at-or-before its earliest
// injection cycle instead of simulating from cycle 0; the report is
// byte-identical to a cold-start run.
//
// With -collapse the static fault-analysis pre-pass (internal/
// statfault) runs before the campaign: experiments with a statically
// provable verdict (unobservable cones, untestable constants, golden-
// quiescent forces) skip simulation, and campaign-exact equivalent
// experiments share one simulation with the outcome copied onto every
// class member; the report is byte-identical to an uncollapsed run.
//
// Campaign execution is supervised: per-experiment watchdogs
// (-exp-cycle-budget, -exp-timeout), retry + quarantine of failing
// experiments (-retries), and deterministic checkpoint/resume
// (-checkpoint, -resume) — a resumed campaign's report is byte-
// identical to an uninterrupted run.
//
// Campaign execution is also observable, strictly out-of-band (the
// stdout report stays byte-identical with every option off or on):
// -journal writes a JSONL lifecycle journal (validated by
// tools/checkjournal), -progress prints periodic stderr snapshots
// (done/total, exp/s, worker utilization, retries, quarantines, ETA),
// and -status serves expvar + net/http/pprof + a /progress JSON
// endpoint for live campaigns (binds 127.0.0.1 for a bare ":port").
//
// "injector worker" joins a distributed campaign instead of running
// one: it builds the same campaign locally from the same spec flags,
// connects to a cmd/campaignd coordinator (-connect host:port, or
// -stdio as a subprocess) and runs leased plan ranges through the
// supervised engine until the coordinator says the campaign is done.
//
// Exit codes are the CI contract, documented in --help: 0 success;
// 1 fatal error; 2 flag/usage error; 3 experiments quarantined
// (campaign degraded); 4 campaign coverage incomplete.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/fit"
	"repro/internal/inject"
	"repro/internal/memsys"
	"repro/internal/report"
	"repro/internal/telemetry"
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

// exitCodesHelp is the shared --help exit-code contract.
func exitCodesHelp(w io.Writer) {
	fmt.Fprintln(w, "\nExit codes:")
	fmt.Fprintln(w, "  0  success")
	fmt.Fprintln(w, "  1  fatal error (build, golden run, campaign or I/O failure)")
	fmt.Fprintln(w, "  2  flag/usage error")
	fmt.Fprintln(w, "  3  experiment(s) quarantined (campaign degraded)")
	fmt.Fprintln(w, "  4  campaign coverage incomplete (with -require-coverage)")
}

func runCampaign(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "injector: ", 0)
	fs := flag.NewFlagSet("injector", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: injector [flags]")
		fmt.Fprintln(stderr, "       injector worker [flags]   (join a cmd/campaignd distributed campaign; see injector worker -h)")
		fmt.Fprintln(stderr, "\nFault-injection validation campaign: golden run, per-zone measured S/DDF,")
		fmt.Fprintln(stderr, "coverage and the cross-check against the FMEA worksheet.")
		exitCodesHelp(stderr)
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	design := fs.String("design", "v2", "implementation: v1 or v2")
	addrWidth := fs.Int("addr", 6, "address width")
	words := fs.Int("words", 8, "March slice size of the workload")
	transient := fs.Int("transient", 6, "transient experiments per zone")
	permanent := fs.Int("permanent", 3, "permanent experiments per zone")
	wide := fs.Int("wide", 12, "wide/global fault experiments")
	seed := fs.Uint64("seed", 1, "campaign seed")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel campaign workers (results are identical)")
	warmstart := fs.Int("warmstart", 0, "golden snapshot cadence in cycles for warm-started experiments (0 = cold start; results are identical)")
	collapse := fs.Bool("collapse", false, "static fault-analysis pre-pass: prune statically-provable experiments and simulate one representative per equivalence class (results are identical)")
	tol := fs.Float64("tol", 0.35, "estimate-vs-measured tolerance")
	vcd := fs.String("vcd", "", "record golden + first-undetected-fault waveforms to <prefix>_{golden,faulty}.vcd")
	out := fs.String("out", "", "also write the canonical campaign report (the distributed byte-identity surface) to this file")
	checkpoint := fs.String("checkpoint", "", "campaign checkpoint file (enables periodic checkpointing)")
	checkpointEvery := fs.Int("checkpoint-every", 16, "completed experiments between checkpoint writes")
	resume := fs.Bool("resume", false, "resume from -checkpoint; the merged report is byte-identical to an uninterrupted run")
	cycleBudget := fs.Int("exp-cycle-budget", 0, "max simulated cycles per experiment (0 = unlimited; exceeding aborts the experiment)")
	expTimeout := fs.Duration("exp-timeout", 0, "max wall-clock per lane batch of up to 64 experiments (0 = unlimited; nondeterministic last-resort hang guard)")
	retries := fs.Int("retries", 0, "retry a failing experiment up to N more times before quarantining it")
	requireCoverage := fs.Bool("require-coverage", true, "exit 4 when campaign coverage is incomplete")
	journalPath := fs.String("journal", "", "write the JSONL campaign journal (lifecycle events) to this file")
	progressEvery := fs.Duration("progress", 0, "print periodic campaign progress to stderr at this interval (0 = off)")
	statusAddr := fs.String("status", "", "serve expvar + pprof + /progress on this address (a bare \":port\" binds 127.0.0.1)")
	tracePath := fs.String("trace", "", "write the JSONL span journal (campaign/phase/exp/batch spans) to this file; analyze with cmd/tracer")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0 // asking for the manual is not a usage error
		}
		return 2
	}

	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "injector: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	switch {
	case *workers < 0:
		return usageErr("-workers must be >= 0 (0 = serial), got %d", *workers)
	case *warmstart < 0:
		return usageErr("-warmstart must be >= 0 (0 = cold start), got %d", *warmstart)
	case *cycleBudget < 0:
		return usageErr("-exp-cycle-budget must be >= 0, got %d", *cycleBudget)
	case *expTimeout < 0:
		return usageErr("-exp-timeout must be >= 0, got %v", *expTimeout)
	case *retries < 0:
		return usageErr("-retries must be >= 0, got %d", *retries)
	case *checkpointEvery < 1:
		return usageErr("-checkpoint-every must be >= 1, got %d", *checkpointEvery)
	case *resume && *checkpoint == "":
		return usageErr("-resume requires -checkpoint")
	case *transient < 0 || *permanent < 0 || *wide < 0:
		return usageErr("experiment counts must be >= 0")
	case *progressEvery < 0:
		return usageErr("-progress must be >= 0, got %v", *progressEvery)
	}

	// Telemetry hub: created when any observability flag is on. It is
	// out-of-band by construction — journal to its file, progress to
	// stderr, status over HTTP — so the stdout report bytes never
	// depend on it.
	var tel *telemetry.Campaign
	if *journalPath != "" || *progressEvery > 0 || *statusAddr != "" || *tracePath != "" {
		var journal *telemetry.Journal
		if *journalPath != "" {
			var err error
			journal, err = telemetry.OpenJournal(*journalPath, telemetry.SystemClock)
			if err != nil {
				lg.Print(err)
				return 1
			}
		}
		tel = telemetry.NewCampaign(journal, telemetry.SystemClock)
		if *tracePath != "" {
			spans, err := telemetry.OpenJournal(*tracePath, telemetry.SystemClock)
			if err != nil {
				lg.Print(err)
				return 1
			}
			// The trace id is a pure function of the campaign spec, so
			// re-running the same campaign yields the same trace id and
			// journals from repeated runs can be told apart by file, not
			// by accident of process identity.
			tel.Tracer = telemetry.NewTracer(spans, "injector", telemetry.TraceID(
				"injector", *design, strconv.Itoa(*addrWidth), strconv.Itoa(*words),
				strconv.Itoa(*transient), strconv.Itoa(*permanent), strconv.Itoa(*wide),
				strconv.FormatUint(*seed, 10)))
			root := tel.StartSpan("campaign")
			tel.SetTraceRoot(root)
			defer func() {
				tel.PhaseDone()
				root.End()
				if err := spans.Close(); err != nil {
					lg.Printf("trace: %v", err)
				}
			}()
		}
		if *statusAddr != "" {
			srv, err := telemetry.ServeStatus(*statusAddr, tel)
			if err != nil {
				lg.Print(err)
				return 1
			}
			lg.Printf("status endpoint: http://%s/progress (expvar at /debug/vars, pprof at /debug/pprof/)", srv.Addr)
			defer srv.Close()
		}
		if *progressEvery > 0 {
			rep := telemetry.StartReporter(stderr, tel, *progressEvery)
			defer rep.Stop()
		}
		defer func() {
			if err := journal.Close(); err != nil {
				lg.Printf("journal: %v", err)
			}
		}()
	}
	fatal := func(err error) int {
		lg.Print(err)
		return 1
	}

	var cfg memsys.Config
	switch *design {
	case "v1":
		cfg = memsys.V1Config()
	case "v2":
		cfg = memsys.V2Config()
	default:
		return usageErr("unknown design %q", *design)
	}
	cfg.AddrWidth = *addrWidth
	tel.Phase("build")
	d, err := memsys.Build(cfg)
	if err != nil {
		return fatal(err)
	}
	tel.Phase("zone-extraction")
	a, err := d.Analyze()
	if err != nil {
		return fatal(err)
	}
	target := d.InjectionTargetSeeded(a, d.SeedFaults())
	target.Workers = *workers
	target.SnapshotEvery = *warmstart
	target.Collapse = *collapse
	target.Supervision = inject.Supervision{
		CycleBudget:     *cycleBudget,
		WallBudget:      *expTimeout,
		Clock:           time.Now,
		Retries:         *retries,
		Quarantine:      true,
		Checkpoint:      *checkpoint,
		CheckpointEvery: *checkpointEvery,
		Resume:          *resume,
	}
	target.Telemetry = tel
	tr := d.ValidationWorkload(*words, *seed)
	fmt.Fprintf(stdout, "%s: workload %d cycles, %d zones\n", cfg.Name, tr.Cycles(), len(a.Zones))

	tel.Phase("golden-run")
	g, err := target.RunGolden(tr)
	if err != nil {
		return fatal(err)
	}
	if ok, inactive := g.CompletenessOK(); !ok {
		fmt.Fprintf(stdout, "WARNING: workload leaves %d zones untriggered\n", len(inactive))
	} else {
		fmt.Fprintln(stdout, "workload completeness: PASS (every zone triggered)")
	}

	tel.Phase("plan")
	pcfg := inject.PlanConfig{TransientPerZone: *transient, PermanentPerZone: *permanent, Seed: *seed}
	plan := inject.BuildPlan(a, g, pcfg)
	plan = append(plan, inject.WidePlan(a, g, *wide, *seed+1)...)
	effective := *workers
	if effective == 0 {
		effective = 1
	}
	if *resume {
		lg.Printf("resuming from checkpoint %s (plan hash %016x)", *checkpoint, inject.PlanHash(plan))
	}
	fmt.Fprintf(stdout, "running %d injection experiments on %d worker(s)...\n", len(plan), effective)
	tel.Phase("campaign")
	rep, err := target.Run(g, plan)
	if err != nil {
		return fatal(err)
	}
	tel.Phase("analysis")

	wks := d.Worksheet(a, fit.Default())
	rep.WriteText(stdout, a, wks, *tol)
	if *out != "" {
		var buf bytes.Buffer
		rep.WriteText(&buf, a, wks, *tol)
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			return fatal(err)
		}
	}

	if *vcd != "" {
		if err := recordVCDs(stdout, *vcd, target, g, rep); err != nil {
			return fatal(err)
		}
	}

	if len(rep.Quarantined) > 0 {
		lg.Printf("campaign degraded: %d experiment(s) quarantined", len(rep.Quarantined))
		return 3
	}
	if *requireCoverage && !rep.Coverage.Complete() {
		cov := rep.Coverage
		lg.Printf("campaign coverage incomplete (SENS %s OBSE %s DIAG %s); failing the gate",
			report.Pct(cov.SensFrac()), report.Pct(cov.ObseFrac()), report.Pct(cov.DiagFrac()))
		return 4
	}
	return 0
}

// runWorker joins a distributed campaign: build the same campaign
// locally (the coordinator validates the plan fingerprint at hello),
// then run leased ranges until fin. The protocol runs over TCP
// (-connect) or this process's stdin/stdout (-stdio); in -stdio mode
// every human-readable line goes to stderr.
func runWorker(args []string, stderr io.Writer) int {
	lg := log.New(stderr, "injector worker: ", 0)
	fs := flag.NewFlagSet("injector worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: injector worker (-connect host:port | -stdio) [flags]")
		fmt.Fprintln(stderr, "\nJoin a cmd/campaignd distributed campaign as a worker. The campaign spec")
		fmt.Fprintln(stderr, "flags (-design, -addr, -words, -transient, -permanent, -wide, -seed) must")
		fmt.Fprintln(stderr, "match the coordinator's; the plan fingerprint is validated at connect.")
		fmt.Fprintln(stderr, "\nExit codes:")
		fmt.Fprintln(stderr, "  0  campaign complete (coordinator sent fin)")
		fmt.Fprintln(stderr, "  1  fatal error (build failure, connection loss, coordinator rejection)")
		fmt.Fprintln(stderr, "  2  flag/usage error")
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	connect := fs.String("connect", "", "coordinator address (host:port)")
	stdio := fs.Bool("stdio", false, "speak the protocol on stdin/stdout (subprocess worker)")
	name := fs.String("name", "", "worker name in coordinator logs (default pid<n>)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "lease keep-alive cadence (must be well under the coordinator's -lease-ttl)")
	design := fs.String("design", "v2", "implementation: v1 or v2")
	addrWidth := fs.Int("addr", 6, "address width")
	words := fs.Int("words", 8, "March slice size of the workload")
	transient := fs.Int("transient", 6, "transient experiments per zone")
	permanent := fs.Int("permanent", 3, "permanent experiments per zone")
	wide := fs.Int("wide", 12, "wide/global fault experiments")
	seed := fs.Uint64("seed", 1, "campaign seed")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers inside one leased range (results are identical)")
	warmstart := fs.Int("warmstart", 0, "golden snapshot cadence in cycles (0 = cold start; results are identical)")
	collapse := fs.Bool("collapse", false, "static fault-analysis pre-pass (results are identical)")
	cycleBudget := fs.Int("exp-cycle-budget", 0, "max simulated cycles per experiment (0 = unlimited)")
	expTimeout := fs.Duration("exp-timeout", 0, "max wall-clock per lane batch of up to 64 experiments (0 = unlimited)")
	retries := fs.Int("retries", 0, "retry a failing experiment up to N more times before quarantining it")
	tracePath := fs.String("trace", "", "write the JSONL span journal to this file; lease spans parent under the coordinator's trace (analyze with cmd/tracer)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "injector worker: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	switch {
	case (*connect == "") == !*stdio:
		return usageErr("exactly one of -connect and -stdio is required")
	case *workers < 0:
		return usageErr("-workers must be >= 0, got %d", *workers)
	case *warmstart < 0:
		return usageErr("-warmstart must be >= 0, got %d", *warmstart)
	case *heartbeat <= 0:
		return usageErr("-heartbeat must be > 0, got %v", *heartbeat)
	case *cycleBudget < 0 || *expTimeout < 0 || *retries < 0:
		return usageErr("supervision budgets must be >= 0")
	case *transient < 0 || *permanent < 0 || *wide < 0:
		return usageErr("experiment counts must be >= 0")
	case *design != "v1" && *design != "v2":
		return usageErr("unknown design %q", *design)
	}
	if *name == "" {
		*name = fmt.Sprintf("pid%d", os.Getpid())
	}

	spec := dist.Spec{
		Design:    *design,
		AddrWidth: *addrWidth,
		Words:     *words,
		Transient: *transient,
		Permanent: *permanent,
		Wide:      *wide,
		Seed:      *seed,
		Warmstart: *warmstart,
	}
	c, err := spec.Build()
	if err != nil {
		lg.Print(err)
		return 1
	}
	c.Target.Collapse = *collapse
	c.Target.Supervision = inject.Supervision{
		CycleBudget: *cycleBudget,
		WallBudget:  *expTimeout,
		Clock:       time.Now,
		Retries:     *retries,
		Quarantine:  true,
	}

	// Tracing: one hub shared between the protocol loop and the
	// injection target, so each leased range's experiment and batch
	// spans nest under the worker-lease span, which in turn parents —
	// across the wire — under the coordinator's lease span. The trace
	// id is seeded from the spec (every process in one campaign derives
	// the same id) and confirmed from the first lease message.
	var tel *telemetry.Campaign
	if *tracePath != "" {
		spans, err := telemetry.OpenJournal(*tracePath, telemetry.SystemClock)
		if err != nil {
			lg.Print(err)
			return 1
		}
		tel = telemetry.NewCampaign(nil, telemetry.SystemClock)
		tel.Tracer = telemetry.NewTracer(spans, *name, spec.TraceID())
		root := tel.StartSpan("worker")
		tel.SetTraceRoot(root)
		defer func() {
			tel.PhaseDone()
			root.End()
			if err := spans.Close(); err != nil {
				lg.Printf("trace: %v", err)
			}
		}()
		c.Target.Telemetry = tel
	}

	var rw io.ReadWriteCloser
	if *stdio {
		rw = stdioConn{os.Stdin, os.Stdout}
	} else {
		conn, err := net.Dial("tcp", *connect)
		if err != nil {
			lg.Print(err)
			return 1
		}
		rw = conn
	}
	lg.Printf("joined campaign as %q (%d experiments in plan)", *name, len(c.Plan))
	err = dist.RunWorker(rw, dist.WorkerConfig{
		Name:      *name,
		Target:    c.Target,
		Golden:    c.Golden,
		Plan:      c.Plan,
		Workers:   *workers,
		Heartbeat: *heartbeat,
		Telemetry: tel,
		Logf:      lg.Printf,
	})
	if err != nil {
		lg.Print(err)
		return 1
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
