// Package cli is the shell the campaign front ends share —
// cmd/injector, "injector worker", cmd/campaignd and cmd/served. It
// owns every flag two of them have in common (name, default, help text
// and range check exist here once), the mapping between a dist.Spec and
// the argv that parses back to it, the telemetry hub the observability
// flags open and the teardown they owe, and the tail that renders the
// canonical campaign report and turns its health into an exit code.
package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Group names a set of shared flags; a front end registers the groups
// it accepts (README has the table of who accepts what).
type Group uint

const (
	// Spec is the campaign identity plus its one process-local field —
	// the fields of dist.Spec: -design -addr -words -transient
	// -permanent -wide -seed -warmstart.
	Spec Group = 1 << iota
	// Workers is -workers.
	Workers
	// Collapse is -collapse.
	Collapse
	// Supervision is -exp-cycle-budget -exp-timeout -retries.
	Supervision
	// Trace is -trace.
	Trace
	// Observe is -journal -progress -status.
	Observe
	// Report is -tol -out -require-coverage.
	Report
	// Join is how a worker reaches its coordinator: -connect -stdio
	// -name -heartbeat.
	Join
)

// Command is one front end's flag set, logger and shared flag values.
// A group that was not registered keeps its defaults, which pass every
// range check and switch the feature off.
type Command struct {
	// Flags takes the front end's own flags between New and Parse.
	Flags *flag.FlagSet
	// Log writes "<name>: ..." diagnostics to stderr.
	Log *log.Logger

	Spec            dist.Spec
	Workers         int
	Collapse        bool
	CycleBudget     int
	ExpTimeout      time.Duration
	Retries         int
	TracePath       string
	JournalPath     string
	Progress        time.Duration
	StatusAddr      string
	Tol             float64
	Out             string
	RequireCoverage bool
	Connect         string
	Stdio           bool
	Name            string
	Heartbeat       time.Duration

	groups Group
}

// New creates the command and registers the shared flag groups. about
// is the usage text above the flag list: synopsis, one-paragraph
// description and the exit-code contract.
func New(name, about string, groups Group, stderr io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, about)
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	c := &Command{Flags: fs, Log: log.New(stderr, name+": ", 0), groups: groups}
	if groups&Spec != 0 {
		fs.StringVar(&c.Spec.Design, "design", "v2", "design under test: "+designs.Vocabulary(true))
		fs.IntVar(&c.Spec.AddrWidth, "addr", 6, "address width of the memory designs")
		fs.IntVar(&c.Spec.Words, "words", 8, "March slice size of the memory designs' workload")
		fs.IntVar(&c.Spec.Transient, "transient", 6, "transient experiments per zone")
		fs.IntVar(&c.Spec.Permanent, "permanent", 3, "permanent experiments per zone")
		fs.IntVar(&c.Spec.Wide, "wide", 12, "wide/global fault experiments")
		fs.Uint64Var(&c.Spec.Seed, "seed", 1, "campaign seed")
		fs.IntVar(&c.Spec.Warmstart, "warmstart", 0, "golden snapshot cadence in cycles for warm-started experiments (0 = cold start; results are identical)")
	}
	if groups&Workers != 0 {
		fs.IntVar(&c.Workers, "workers", runtime.NumCPU(), "campaign goroutines in this process (0 = serial; results are identical)")
	}
	if groups&Collapse != 0 {
		fs.BoolVar(&c.Collapse, "collapse", false, "static fault-analysis pre-pass: prune statically-provable experiments and simulate one representative per equivalence class (results are identical)")
	}
	if groups&Supervision != 0 {
		fs.IntVar(&c.CycleBudget, "exp-cycle-budget", 0, "max simulated cycles per experiment (0 = unlimited; exceeding aborts the experiment)")
		fs.DurationVar(&c.ExpTimeout, "exp-timeout", 0, "max wall-clock per lane batch of up to 64 experiments (0 = unlimited; nondeterministic last-resort hang guard)")
		fs.IntVar(&c.Retries, "retries", 0, "retry a failing experiment up to N more times before quarantining it")
	}
	if groups&Trace != 0 {
		fs.StringVar(&c.TracePath, "trace", "", "write this process's JSONL span journal to this file (analyze with cmd/tracer)")
	}
	if groups&Observe != 0 {
		fs.StringVar(&c.JournalPath, "journal", "", "write the JSONL campaign journal (lifecycle events) to this file")
		fs.DurationVar(&c.Progress, "progress", 0, "print periodic campaign progress to stderr at this interval (0 = off)")
		fs.StringVar(&c.StatusAddr, "status", "", "serve /progress, /metrics, /metrics.json and pprof on this address (a bare \":port\" binds 127.0.0.1)")
	}
	if groups&Report != 0 {
		fs.Float64Var(&c.Tol, "tol", 0.35, "estimate-vs-measured tolerance")
		fs.StringVar(&c.Out, "out", "", "also write the canonical campaign report (the distributed byte-identity surface) to this file")
		fs.BoolVar(&c.RequireCoverage, "require-coverage", true, "exit 4 when campaign coverage is incomplete")
	}
	if groups&Join != 0 {
		fs.StringVar(&c.Connect, "connect", "", "coordinator address (host:port)")
		fs.BoolVar(&c.Stdio, "stdio", false, "speak the protocol on stdin/stdout (subprocess worker)")
		fs.StringVar(&c.Name, "name", "", "worker name in coordinator logs (default pid<n>)")
		fs.DurationVar(&c.Heartbeat, "heartbeat", 2*time.Second, "lease keep-alive cadence (must be well under the coordinator's -lease-ttl)")
	}
	return c
}

// Parse parses args and range-checks the shared flags. ok is false
// when the process should exit with code right away: 0 after -h, 2
// after a flag or range error (the usage text has been printed).
func (c *Command) Parse(args []string) (code int, ok bool) {
	if err := c.Flags.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0, false // asking for the manual is not a usage error
		}
		return 2, false
	}
	if err := c.check(); err != nil {
		return c.UsageErr("%v", err), false
	}
	return 0, true
}

func (c *Command) check() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = serial), got %d", c.Workers)
	case c.groups&Spec != 0 && c.Spec.Words < 1:
		return fmt.Errorf("-words must be >= 1, got %d", c.Spec.Words)
	case c.Spec.Warmstart < 0:
		return fmt.Errorf("-warmstart must be >= 0 (0 = cold start), got %d", c.Spec.Warmstart)
	case c.CycleBudget < 0:
		return fmt.Errorf("-exp-cycle-budget must be >= 0, got %d", c.CycleBudget)
	case c.ExpTimeout < 0:
		return fmt.Errorf("-exp-timeout must be >= 0, got %v", c.ExpTimeout)
	case c.Retries < 0:
		return fmt.Errorf("-retries must be >= 0, got %d", c.Retries)
	case c.Spec.Transient < 0 || c.Spec.Permanent < 0 || c.Spec.Wide < 0:
		return fmt.Errorf("experiment counts must be >= 0")
	case !(c.Tol >= 0 && c.Tol <= 1): // also rejects NaN
		return fmt.Errorf("-tol must be in [0, 1], got %v", c.Tol)
	case c.Progress < 0:
		return fmt.Errorf("-progress must be >= 0, got %v", c.Progress)
	case c.groups&Join != 0 && (c.Connect == "") == !c.Stdio:
		return fmt.Errorf("exactly one of -connect and -stdio is required")
	case c.groups&Join != 0 && c.Heartbeat <= 0:
		return fmt.Errorf("-heartbeat must be > 0, got %v", c.Heartbeat)
	}
	if c.groups&Spec != 0 {
		return designs.CheckDUT(c.Spec.Design)
	}
	return nil
}

// UsageErr reports a flag error the way the flag package does — the
// message, then the usage text — and returns exit code 2.
func (c *Command) UsageErr(format string, args ...any) int {
	fmt.Fprintf(c.Flags.Output(), c.Flags.Name()+": "+format+"\n", args...)
	c.Flags.Usage()
	return 2
}

// Fatal logs err and returns exit code 1.
func (c *Command) Fatal(err error) int {
	c.Log.Print(err)
	return 1
}

// WorkerArgs is the argv that makes cmd/injector join as the subprocess
// worker called name — what campaignd's -spawn runs: the "worker" mode
// word, -stdio, the spec, and the worker's own -trace file when the
// coordinator traces. It walks the flags the worker itself registers
// from this package, so the two ends of the pipe share one spelling and
// a flag added to the Spec group is passed on without a second one.
func WorkerArgs(sp dist.Spec, name, tracePath string) []string {
	c := New("", "", Spec|Trace|Join, io.Discard)
	c.Spec, c.Stdio, c.Name, c.TracePath = sp, true, name, tracePath
	argv := []string{"worker"}
	c.Flags.VisitAll(func(f *flag.Flag) {
		argv = append(argv, "-"+f.Name+"="+f.Value.String())
	})
	return argv
}

// RangeWorkers is -workers as Prepared.RunRange and dist.WorkerConfig
// count goroutines: 0 means serial in every front end, where RunRange
// itself would read 0 as "one per CPU".
func (c *Command) RangeWorkers() int {
	if c.Workers == 0 {
		return 1
	}
	return c.Workers
}

// Engine applies the engine flags to a campaign target: sharding,
// collapse and the supervision policy every campaign CLI runs under
// (watchdog budgets from the flags, retry then quarantine).
func (c *Command) Engine(t *inject.Target) {
	t.Workers = c.Workers
	t.Collapse = c.Collapse
	t.Supervision = inject.Supervision{
		CycleBudget: c.CycleBudget,
		WallBudget:  c.ExpTimeout,
		Clock:       time.Now,
		Retries:     c.Retries,
		Quarantine:  true,
	}
}

// OpenHub opens what the observability flags ask for — the lifecycle
// journal, the span tracer with its root span, the status server and
// the stderr progress reporter — around one telemetry hub. The hub is
// nil (and inert) when every flag is off. It is out-of-band by
// construction: journal to its file, progress to stderr, status over
// HTTP, so the stdout report never depends on it. closeHub is owed on
// every exit path; it stops the reporter, closes the server, ends the
// root span and flushes both journals.
//
// proc labels the tracer's spans and root names its root span. The
// trace id is Spec.TraceID, so every process of one campaign — and
// every re-run of it — derives the same id.
func (c *Command) OpenHub(proc, root string) (tel *telemetry.Campaign, closeHub func(), err error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if c.JournalPath == "" && c.Progress == 0 && c.StatusAddr == "" && c.TracePath == "" {
		return nil, closeAll, nil
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	closeJournal := func(what string, j *telemetry.Journal) {
		closers = append(closers, func() {
			if err := j.Close(); err != nil {
				c.Log.Printf("%s: %v", what, err)
			}
		})
	}

	var journal *telemetry.Journal
	if c.JournalPath != "" {
		if journal, err = telemetry.OpenJournal(c.JournalPath, telemetry.SystemClock); err != nil {
			return nil, nil, err
		}
		closeJournal("journal", journal)
	}
	tel = telemetry.NewCampaign(journal, telemetry.SystemClock)
	if c.TracePath != "" {
		spans, err := telemetry.OpenJournal(c.TracePath, telemetry.SystemClock)
		if err != nil {
			return nil, nil, err
		}
		closeJournal("trace", spans)
		tel.Tracer = telemetry.NewTracer(spans, proc, c.Spec.TraceID())
		rootSpan := tel.StartSpan(root)
		tel.SetTraceRoot(rootSpan)
		closers = append(closers, func() {
			tel.PhaseDone()
			rootSpan.End()
		})
	}
	if c.StatusAddr != "" {
		srv, err := telemetry.ServeStatus(c.StatusAddr, tel)
		if err != nil {
			return nil, nil, err
		}
		c.Log.Printf("status endpoint: http://%s/progress (metrics at /metrics and /metrics.json, pprof at /debug/pprof/)", srv.Addr)
		closers = append(closers, func() { srv.Close() }) //nolint:errcheck — the process is exiting
	}
	if c.Progress > 0 {
		closers = append(closers, telemetry.StartReporter(c.Flags.Output(), tel, c.Progress).Stop)
	}
	return tel, closeAll, nil
}

// WriteReport renders the canonical campaign report once and writes the
// same bytes to stdout and, when set, to the -out file.
func (c *Command) WriteReport(stdout io.Writer, camp *dist.Campaign, rep *inject.Report) error {
	var buf bytes.Buffer
	rep.WriteText(&buf, camp.Analysis, camp.Worksheet, c.Tol)
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		return err
	}
	if c.Out == "" {
		return nil
	}
	return os.WriteFile(c.Out, buf.Bytes(), 0o644)
}

// ExitCode is the CI contract of a finished campaign: 3 when any
// experiment was quarantined, 4 when -require-coverage is on and
// coverage is incomplete, else 0.
func (c *Command) ExitCode(rep *inject.Report) int {
	if n := len(rep.Quarantined); n > 0 {
		c.Log.Printf("campaign degraded: %d experiment(s) quarantined", n)
		return 3
	}
	if cov := rep.Coverage; c.RequireCoverage && !cov.Complete() {
		c.Log.Printf("campaign coverage incomplete (SENS %s OBSE %s DIAG %s); failing the gate",
			report.Pct(cov.SensFrac()), report.Pct(cov.ObseFrac()), report.Pct(cov.DiagFrac()))
		return 4
	}
	return 0
}
