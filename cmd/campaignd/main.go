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
// The campaign spec flags are cmd/injector's (internal/cli registers
// both) and must match the workers'; a worker with a different plan
// fingerprint is rejected at connect.
//
// Exit codes are the CI contract, documented in --help: 0 success;
// 1 fatal error; 2 flag/usage error; 3 rows quarantined (campaign
// degraded); 4 campaign coverage incomplete.
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/inject"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const about = `usage: campaignd [flags]

Distributed campaign coordinator: leases plan ranges to injector workers,
survives worker loss, and merges a report byte-identical to a serial run.

Exit codes:
  0  success
  1  fatal error (build failure, campaign failure, I/O failure)
  2  flag/usage error
  3  plan rows quarantined (campaign degraded)
  4  campaign coverage incomplete (with -require-coverage)
`

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("campaignd", about,
		cli.Spec|cli.Workers|cli.Collapse|cli.Trace|cli.Observe|cli.Report, stderr)
	fs, lg := cmd.Flags, cmd.Log
	listen := fs.String("listen", "", "accept TCP workers on this address (a bare \":port\" binds 127.0.0.1)")
	spawn := fs.Int("spawn", 0, "spawn N subprocess workers over stdio pipes (with -trace, worker N writes <trace>.spawnN)")
	workerBin := fs.String("worker-bin", "", "injector binary for -spawn (runs \"<bin> worker -stdio\" with matching spec flags)")
	rangeSize := fs.Int("range", 32, "plan rows per lease")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "lease lifetime without a heartbeat before revocation")
	maxAttempts := fs.Int("max-attempts", 5, "lease attempts per range before the range is quarantined")
	backoffBase := fs.Duration("backoff", 250*time.Millisecond, "re-issue backoff after a failed lease attempt (doubles per attempt)")
	backoffCap := fs.Duration("backoff-cap", 10*time.Second, "re-issue backoff ceiling")
	tick := fs.Duration("tick", 200*time.Millisecond, "scheduler cadence (bounds dead-worker detection latency)")
	local := fs.Bool("local", true, "run ranges in-process while no live worker exists (graceful degradation; -workers, -warmstart and -collapse apply to it)")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}
	switch {
	case *rangeSize < 1:
		return cmd.UsageErr("-range must be >= 1, got %d", *rangeSize)
	case *leaseTTL <= 0:
		return cmd.UsageErr("-lease-ttl must be > 0, got %v", *leaseTTL)
	case *maxAttempts < 1:
		return cmd.UsageErr("-max-attempts must be >= 1, got %d", *maxAttempts)
	case *backoffBase <= 0:
		return cmd.UsageErr("-backoff must be > 0, got %v", *backoffBase)
	case *backoffCap <= 0:
		return cmd.UsageErr("-backoff-cap must be > 0, got %v", *backoffCap)
	case *tick <= 0:
		return cmd.UsageErr("-tick must be > 0, got %v", *tick)
	case *spawn < 0:
		return cmd.UsageErr("-spawn must be >= 0, got %d", *spawn)
	case *spawn > 0 && *workerBin == "":
		return cmd.UsageErr("-spawn requires -worker-bin")
	case *listen == "" && *spawn == 0 && !*local:
		return cmd.UsageErr("no execution path: need -listen, -spawn or -local")
	}

	// Workers derive the same spec-hashed trace id locally and every
	// lease message carries it, so the fleet's span journals merge into
	// one trace under cmd/tracer.
	tel, closeHub, err := cmd.OpenHub("coordinator", "dist-campaign")
	if err != nil {
		return cmd.Fatal(err)
	}
	defer closeHub()

	c, err := cmd.Spec.BuildObserved(tel)
	if err != nil {
		return cmd.Fatal(err)
	}
	cmd.Engine(c.Target)
	// Prepared once, like a worker at join: the local runner pays per
	// range only for its rows.
	camp := c.Target.Prepare(c.Golden, c.Plan)
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
		Logf:        lg.Printf,
	}
	if *local {
		ccfg.LocalRunner = func(lo, hi int) (*inject.Checkpoint, error) {
			return camp.RunRange(cmd.RangeWorkers(), lo, hi)
		}
	}
	coord, err := dist.New(ccfg)
	if err != nil {
		return cmd.Fatal(err)
	}

	// conns tracks live worker connections so shutdown can wait for the
	// fin handshake to drain instead of racing process exit.
	var conns sync.WaitGroup
	if *listen != "" {
		ln, err := net.Listen("tcp", bindLoopback(*listen))
		if err != nil {
			return cmd.Fatal(err)
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
		if err := spawnWorker(coord, *workerBin, cmd, i, &conns, stderr); err != nil {
			return cmd.Fatal(err)
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
		return cmd.Fatal(err)
	}
	rep, err := c.Target.AssembleReport(c.Plan, ck)
	if err != nil {
		return cmd.Fatal(err)
	}
	if err := cmd.WriteReport(stdout, c, rep); err != nil {
		return cmd.Fatal(err)
	}
	if n := coord.Quarantined(); n > 0 {
		lg.Printf("%d range(s) exhausted their lease attempts", n)
	}
	return cmd.ExitCode(rep)
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
func spawnWorker(coord *dist.Coordinator, bin string, c *cli.Command, i int, conns *sync.WaitGroup, stderr io.Writer) error {
	name, trace := fmt.Sprintf("spawn%d", i), ""
	if c.TracePath != "" {
		trace = c.TracePath + "." + name
	}
	argv := cli.WorkerArgs(c.Spec, name, trace)
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
	c.Log.Printf("spawned worker %d (pid %d)", i, cmd.Process.Pid)
	conns.Add(1)
	go func() {
		defer conns.Done()
		if err := coord.Serve(pipeConn{stdout, stdin}); err != nil {
			c.Log.Printf("spawned worker %d: %v", i, err)
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
