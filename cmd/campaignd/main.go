// Command campaignd coordinates a distributed fault-injection
// campaign: it splits the plan into disjoint index ranges, leases them
// to "injector worker" processes over a line-JSON protocol (TCP via
// -listen, or subprocess pipes via -spawn), revokes and re-issues
// leases when workers die or go silent past the TTL, and merges the
// returned checkpoint records into a report that is byte-identical to
// a single-process serial run — at any cluster size, any kill point,
// any lease schedule.
//
// Robustness is the product: heartbeat-refreshed lease TTLs, capped
// exponential backoff on re-issue, at-least-once execution made safe
// by byte-verifying duplicate range results, quarantine of ranges that
// exhaust their attempt budget (every row conservatively counted
// dangerous-undetected, exit 3), and graceful degradation to local
// in-process execution (-local) when no worker is alive.
//
// The campaign spec flags (-design, -addr, -words, -transient,
// -permanent, -wide, -seed) must match the workers'; a worker with a
// different plan fingerprint is rejected at connect.
//
// Exit codes are the CI contract, documented in --help: 0 success;
// 1 fatal error; 2 flag/usage error; 3 rows quarantined (campaign
// degraded); 4 campaign coverage incomplete.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/inject"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "campaignd: ", 0)
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: campaignd [flags]")
		fmt.Fprintln(stderr, "\nDistributed campaign coordinator: leases plan ranges to injector workers,")
		fmt.Fprintln(stderr, "survives worker loss, and merges a report byte-identical to a serial run.")
		fmt.Fprintln(stderr, "\nExit codes:")
		fmt.Fprintln(stderr, "  0  success")
		fmt.Fprintln(stderr, "  1  fatal error (build failure, campaign failure, I/O failure)")
		fmt.Fprintln(stderr, "  2  flag/usage error")
		fmt.Fprintln(stderr, "  3  plan rows quarantined (campaign degraded)")
		fmt.Fprintln(stderr, "  4  campaign coverage incomplete (with -require-coverage)")
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
	listen := fs.String("listen", "", "accept TCP workers on this address (a bare \":port\" binds 127.0.0.1)")
	spawn := fs.Int("spawn", 0, "spawn N subprocess workers over stdio pipes")
	workerBin := fs.String("worker-bin", "", "injector binary for -spawn (runs \"<bin> worker -stdio\" with matching spec flags)")
	rangeSize := fs.Int("range", 32, "plan rows per lease")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "lease lifetime without a heartbeat before revocation")
	maxAttempts := fs.Int("max-attempts", 5, "lease attempts per range before the range is quarantined")
	backoffBase := fs.Duration("backoff", 250*time.Millisecond, "re-issue backoff after a failed lease attempt (doubles per attempt)")
	backoffCap := fs.Duration("backoff-cap", 10*time.Second, "re-issue backoff ceiling")
	tick := fs.Duration("tick", 200*time.Millisecond, "scheduler cadence (bounds dead-worker detection latency)")
	local := fs.Bool("local", true, "run ranges in-process while no live worker exists (graceful degradation)")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers for -local in-process execution")
	warmstart := fs.Int("warmstart", 0, "golden snapshot cadence for local execution (0 = cold start; results are identical)")
	collapse := fs.Bool("collapse", false, "static fault-analysis pre-pass for local execution (results are identical)")
	tol := fs.Float64("tol", 0.35, "estimate-vs-measured tolerance")
	out := fs.String("out", "", "also write the canonical campaign report (the distributed byte-identity surface) to this file")
	requireCoverage := fs.Bool("require-coverage", true, "exit 4 when campaign coverage is incomplete")
	journalPath := fs.String("journal", "", "write the JSONL campaign journal to this file")
	progressEvery := fs.Duration("progress", 0, "print periodic campaign progress to stderr at this interval (0 = off)")
	statusAddr := fs.String("status", "", "serve expvar + pprof + /progress on this address")
	tracePath := fs.String("trace", "", "write the coordinator's JSONL span journal to this file; spawned workers write <file>.spawnN (analyze with cmd/tracer)")
	adaptive := fs.Bool("adaptive", false, "latency-driven lease sizing: split pending ranges so one lease carries about -lease-target of work (results are identical)")
	leaseTarget := fs.Duration("lease-target", 0, "target wall time per lease for -adaptive (0 = lease-ttl/4)")
	minRange := fs.Int("min-range", 0, "smallest range -adaptive may split down to (0 = 4)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "campaignd: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	switch {
	case *rangeSize < 1:
		return usageErr("-range must be >= 1, got %d", *rangeSize)
	case *leaseTTL <= 0:
		return usageErr("-lease-ttl must be > 0, got %v", *leaseTTL)
	case *maxAttempts < 1:
		return usageErr("-max-attempts must be >= 1, got %d", *maxAttempts)
	case *tick <= 0:
		return usageErr("-tick must be > 0, got %v", *tick)
	case *spawn < 0:
		return usageErr("-spawn must be >= 0, got %d", *spawn)
	case *spawn > 0 && *workerBin == "":
		return usageErr("-spawn requires -worker-bin")
	case *listen == "" && *spawn == 0 && !*local:
		return usageErr("no execution path: need -listen, -spawn or -local")
	case *workers < 0:
		return usageErr("-workers must be >= 0, got %d", *workers)
	case *warmstart < 0:
		return usageErr("-warmstart must be >= 0, got %d", *warmstart)
	case *transient < 0 || *permanent < 0 || *wide < 0:
		return usageErr("experiment counts must be >= 0")
	case *progressEvery < 0:
		return usageErr("-progress must be >= 0, got %v", *progressEvery)
	case *leaseTarget < 0:
		return usageErr("-lease-target must be >= 0, got %v", *leaseTarget)
	case *minRange < 0:
		return usageErr("-min-range must be >= 0, got %d", *minRange)
	case *design != "v1" && *design != "v2":
		return usageErr("unknown design %q", *design)
	}

	sp := dist.Spec{
		Design:    *design,
		AddrWidth: *addrWidth,
		Words:     *words,
		Transient: *transient,
		Permanent: *permanent,
		Wide:      *wide,
		Seed:      *seed,
		Warmstart: *warmstart,
	}

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
			// Spec-derived trace id: workers derive the same id locally
			// and every lease message carries it, so the fleet's span
			// journals merge into one trace under cmd/tracer.
			tel.Tracer = telemetry.NewTracer(spans, "coordinator", sp.TraceID())
			root := tel.StartSpan("dist-campaign")
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
			lg.Printf("status endpoint: http://%s/progress", srv.Addr)
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

	c, err := sp.Build()
	if err != nil {
		return fatal(err)
	}
	c.Target.Collapse = *collapse
	c.Target.Supervision = inject.Supervision{Clock: time.Now, Quarantine: true}
	c.Target.Telemetry = tel
	// Prepared once, like a worker at join: the local runner pays per
	// range only for its rows.
	camp, err := c.Target.Prepare(c.Golden, c.Plan)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "%s: workload %d cycles, %d zones\n", c.Name, c.Trace.Cycles(), len(c.Analysis.Zones))
	fmt.Fprintf(stdout, "distributing %d injection experiments (range size %d, plan hash %016x)...\n",
		len(c.Plan), *rangeSize, camp.PlanHash())

	ccfg := dist.Config{
		Plan:        c.Plan,
		RangeSize:   *rangeSize,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoffBase,
		BackoffCap:  *backoffCap,
		Clock:       time.Now,
		Telemetry:   tel,
		Adaptive:    *adaptive,
		TargetLease: *leaseTarget,
		MinRange:    *minRange,
		Logf:        lg.Printf,
	}
	if *local {
		ccfg.LocalRunner = func(lo, hi int) (*inject.Checkpoint, error) {
			return camp.RunRange(*workers, lo, hi)
		}
	}
	coord, err := dist.New(ccfg)
	if err != nil {
		return fatal(err)
	}

	// conns tracks live worker connections so shutdown can wait for the
	// fin handshake to drain instead of racing process exit.
	var conns sync.WaitGroup
	if *listen != "" {
		ln, err := net.Listen("tcp", bindLoopback(*listen))
		if err != nil {
			return fatal(err)
		}
		defer ln.Close()
		lg.Printf("accepting workers on %s", ln.Addr())
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				conns.Add(1)
				go func() {
					defer conns.Done()
					if err := coord.Serve(conn); err != nil {
						lg.Printf("worker connection: %v", err)
					}
				}()
			}
		}()
	}

	for i := 0; i < *spawn; i++ {
		if err := spawnWorker(coord, *workerBin, sp, i, *tracePath, &conns, stderr, lg); err != nil {
			return fatal(err)
		}
	}

	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	for running := true; running; {
		select {
		case <-coord.Done():
			running = false
		case <-ticker.C:
			coord.Tick()
		}
	}
	// Let the fin handshake reach every live worker before tearing the
	// process down; a hung worker only costs the grace period.
	waitTimeout(&conns, 5*time.Second)

	ck, err := coord.Result()
	if err != nil {
		return fatal(err)
	}
	rep, err := c.Target.AssembleReport(c.Plan, ck)
	if err != nil {
		return fatal(err)
	}

	rep.WriteText(stdout, c.Analysis, c.Worksheet, *tol)
	if *out != "" {
		var buf bytes.Buffer
		rep.WriteText(&buf, c.Analysis, c.Worksheet, *tol)
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			return fatal(err)
		}
	}

	if len(rep.Quarantined) > 0 {
		lg.Printf("campaign degraded: %d plan row(s) quarantined (%d range(s))", len(rep.Quarantined), coord.Quarantined())
		return 3
	}
	if *requireCoverage && !rep.Coverage.Complete() {
		lg.Printf("campaign coverage incomplete; failing the gate")
		return 4
	}
	return 0
}

// bindLoopback maps a bare ":port" onto the loopback interface, the
// same convention as the telemetry status server.
func bindLoopback(addr string) string {
	if len(addr) > 0 && addr[0] == ':' {
		return "127.0.0.1" + addr
	}
	return addr
}

// waitTimeout waits for wg, giving up after d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	select {
	case <-ch:
	case <-time.After(d):
	}
}

// spawnWorker launches one "injector worker -stdio" subprocess with
// spec flags matching the coordinator's and serves the protocol over
// its pipes. The subprocess's stderr is passed through. When the
// coordinator traces, each spawned worker writes its span journal next
// to the coordinator's as <trace>.spawnN.
func spawnWorker(coord *dist.Coordinator, bin string, sp dist.Spec, i int, tracePath string, conns *sync.WaitGroup, stderr io.Writer, lg *log.Logger) error {
	argv := []string{"worker", "-stdio",
		"-name", fmt.Sprintf("spawn%d", i),
		"-design", sp.Design,
		"-addr", strconv.Itoa(sp.AddrWidth),
		"-words", strconv.Itoa(sp.Words),
		"-transient", strconv.Itoa(sp.Transient),
		"-permanent", strconv.Itoa(sp.Permanent),
		"-wide", strconv.Itoa(sp.Wide),
		"-seed", strconv.FormatUint(sp.Seed, 10),
		"-warmstart", strconv.Itoa(sp.Warmstart),
	}
	if tracePath != "" {
		argv = append(argv, "-trace", fmt.Sprintf("%s.spawn%d", tracePath, i))
	}
	cmd := exec.Command(bin, argv...)
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	lg.Printf("spawned worker %d (pid %d)", i, cmd.Process.Pid)
	conns.Add(1)
	go func() {
		defer conns.Done()
		if err := coord.Serve(pipeConn{stdout, stdin}); err != nil {
			lg.Printf("spawned worker %d: %v", i, err)
		}
		cmd.Wait()
	}()
	return nil
}

// pipeConn bundles a subprocess's stdout/stdin pipes into the
// protocol's stream interface.
type pipeConn struct {
	io.Reader
	w io.WriteCloser
}

func (p pipeConn) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p pipeConn) Close() error                { return p.w.Close() }
