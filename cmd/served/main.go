// Command served is the campaign-as-a-service daemon: it wraps the
// paper's whole assessment flow (netlist → zones → DRC → worksheet →
// injection → certify) behind a long-running HTTP/JSON API.
//
// Submissions (design spec + plan + grading knobs) enter a bounded
// FIFO queue feeding a worker pool over the supervised core.Assess
// engine; a full queue answers 429, a repeat or a regrade of a spec
// already measured is graded from the content-addressed evidence cache
// with no second engine run, and every job exposes its own live
// /progress snapshot, report and JSONL span journal. SIGTERM drains
// gracefully: no new submissions, queued and running jobs finish, then
// the process exits 0.
//
// Quick start:
//
//	served -listen :8080 &
//	curl -d '{"design":"v2","validate":true}' http://127.0.0.1:8080/jobs
//	curl http://127.0.0.1:8080/jobs/j1/progress   # poll
//	curl http://127.0.0.1:8080/jobs/j1/report     # byte-identical to cmd/certify
//
// Security posture: like the telemetry status server, served binds
// loopback unless -expose is given — the API is unauthenticated, so
// exposing it beyond loopback is an explicit operator decision.
//
// Exit codes: 0 clean shutdown after drain; 1 fatal error (bind
// failure, drain timeout); 2 flag/usage error.
package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

const about = `usage: served [flags]

Multi-tenant assessment daemon: POST /jobs, poll /jobs/{id}/progress,
fetch /jobs/{id}/report (byte-identical to cmd/certify).

Exit codes:
  0  clean shutdown after graceful drain
  1  fatal error (bind failure, serve failure, drain timeout)
  2  flag/usage error
`

// run is the testable daemon body. ready, when non-nil, receives the
// bound address once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	cmd := cli.New("served", about, cli.Collapse, stderr)
	fs, lg := cmd.Flags, cmd.Log
	listen := fs.String("listen", "127.0.0.1:8080", "listen address (empty and wildcard hosts bind 127.0.0.1 unless -expose)")
	expose := fs.Bool("expose", false, "bind the address exactly as given, wildcard hosts included (the API is unauthenticated)")
	queue := fs.Int("queue", 64, "bounded FIFO submission queue depth (overflow answers 429)")
	jobs := fs.Int("jobs", 1, "job worker pool size (concurrent assessments)")
	engineWorkers := fs.Int("engine-workers", runtime.NumCPU(), "injection-campaign goroutines per job (byte-neutral)")
	cacheCap := fs.Int("cache", 256, "content-addressed evidence cache entries (negative disables)")
	jobsCap := fs.Int("jobs-cap", 1024, "job table retention: oldest finished jobs evicted past this many (negative disables)")
	drainTimeout := fs.Duration("drain-timeout", 0, "max wait for running jobs on SIGTERM (0 = wait forever)")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}
	switch {
	case *queue < 1:
		return cmd.UsageErr("-queue must be >= 1, got %d", *queue)
	case *jobs < 1:
		return cmd.UsageErr("-jobs must be >= 1, got %d", *jobs)
	}

	addr := *listen
	if !*expose {
		addr = telemetry.DefaultLoopback(addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		lg.Printf("listen: %v", err)
		return 1
	}

	srv := serve.New(serve.Config{
		QueueDepth:     *queue,
		Workers:        *jobs,
		EngineWorkers:  *engineWorkers,
		EngineCollapse: cmd.Collapse,
		CacheCap:       *cacheCap,
		JobsCap:        *jobsCap,
		Clock:          telemetry.SystemClock,
	})
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	lg.Printf("listening on %s (queue %d, %d job worker(s), %d engine worker(s))",
		ln.Addr(), *queue, *jobs, *engineWorkers)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sg := <-sig:
		lg.Printf("signal %v: draining (no new submissions; queued and running jobs finish)", sg)
		// Drain with the listener still up: new submissions get 503
		// (ErrDraining) but clients keep polling and can fetch reports
		// for jobs that finish during the drain. Only then stop the
		// HTTP server — gracefully, so a client mid-poll during a
		// routine deploy gets a complete response, not a connection
		// reset; Close only fires if stragglers outlive the deadline.
		drainErr := srv.Drain(*drainTimeout)
		sdCtx, sdCancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(sdCtx); err != nil {
			hs.Close() //nolint:errcheck — deadline passed; sever stragglers
		}
		sdCancel()
		if drainErr != nil {
			lg.Printf("drain: %v", drainErr)
			return 1
		}
		lg.Printf("drained cleanly")
		return 0
	case err := <-errc:
		lg.Printf("serve: %v", err)
		return 1
	}
}
