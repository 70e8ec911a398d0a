package dist

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/inject"
	"repro/internal/telemetry"
)

// ErrKilled is returned by RunWorker when the OnLease hook aborts the
// worker mid-campaign — the in-process stand-in for kill -9 in crash
// tests. The connection is dropped without a goodbye, exactly like a
// killed process.
var ErrKilled = errors.New("dist: worker killed by test hook")

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs.
	Name string
	// Target/Golden/Plan are the worker's locally-built campaign; the
	// plan fingerprint is validated against the coordinator's at hello.
	Target *inject.Target
	Golden *inject.Golden
	Plan   []inject.Injection
	// Workers is the goroutine shard count inside one leased range
	// (<= 0: 1).
	Workers int
	// Heartbeat is the keep-alive cadence while a lease runs
	// (<= 0: 2s). Must be well under the coordinator's lease TTL.
	Heartbeat time.Duration
	// OnLease, when set, is consulted before running each granted
	// lease (count is 1-based across the worker's lifetime); returning
	// false kills the worker abruptly. Test hook only.
	OnLease func(count, lo, hi int) bool
	// Telemetry is the worker's hub (nil = off). With a Tracer
	// attached, each lease runs under a worker-lease span parented —
	// via the trace context on the lease message — under the
	// coordinator's lease span, and the range's lane-batch spans nest
	// under it, merging the fleet's journals into one trace.
	Telemetry *telemetry.Campaign
	// Logf receives scheduling events (nil = silent). Out-of-band.
	Logf func(format string, args ...any)
}

// RunWorker speaks the worker side of the protocol over rw: hello,
// then lease → run → result until the coordinator says fin. The
// campaign is prepared once, before hello — the fingerprint sent there
// comes from it — so a lease costs its rows, not the plan. Each lease
// runs through the full supervised engine (Prepared.RunRange), so
// watchdogs, retries, per-experiment quarantine, batch width and
// collapse all apply within the range; a heartbeat goroutine keeps the lease
// alive for as long as the range takes. Returns nil on a clean fin.
func RunWorker(rw io.ReadWriteCloser, cfg WorkerConfig) error {
	conn := NewConn(rw)
	defer conn.Close()
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	camp := cfg.Target.Prepare(cfg.Golden, cfg.Plan)
	err := conn.Write(&Msg{
		T:        MsgHello,
		V:        ProtocolVersion,
		Worker:   cfg.Name,
		PlanHash: fmt.Sprintf("%016x", camp.PlanHash()),
		PlanLen:  len(cfg.Plan),
	})
	if err != nil {
		return fmt.Errorf("dist: worker: hello: %w", err)
	}

	leases := 0
	for {
		m, err := conn.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return errors.New("dist: worker: coordinator closed connection")
			}
			return err
		}
		switch m.T {
		case MsgLease:
			leases++
			if cfg.OnLease != nil && !cfg.OnLease(leases, m.Lo, m.Hi) {
				return ErrKilled
			}
			logf("lease %d: running range [%d,%d)", m.Lease, m.Lo, m.Hi)
			// Open the worker-lease span under the coordinator's lease
			// span (rparent over the wire) and make it the ambient
			// trace root so the range's lane-batch spans nest inside.
			tel := cfg.Telemetry
			lease, lo, hi := m.Lease, m.Lo, m.Hi
			lsp := tel.StartRemoteSpan("worker-lease", m.Trace, m.Span, func(e *telemetry.Enc) {
				e.Int("lease", lease)
				e.Int("lo", int64(lo))
				e.Int("hi", int64(hi))
			})
			prevRoot := tel.TraceRoot()
			tel.SetTraceRoot(lsp)
			stop := startHeartbeats(conn, m.Lease, cfg.Heartbeat)
			ck, runErr := camp.RunRange(cfg.Workers, m.Lo, m.Hi)
			stop()
			tel.SetTraceRoot(prevRoot)
			if runErr != nil {
				lsp.EndOutcome("failed")
				logf("lease %d: range [%d,%d) failed: %v", m.Lease, m.Lo, m.Hi, runErr)
				if werr := conn.Write(&Msg{T: MsgFail, Lease: m.Lease, Err: runErr.Error()}); werr != nil {
					return werr
				}
				continue
			}
			lsp.EndOutcome("done")
			logf("lease %d: range [%d,%d) complete", m.Lease, m.Lo, m.Hi)
			werr := conn.Write(&Msg{
				T:     MsgResult,
				Lease: m.Lease,
				Ckpt:  camp.Encode(ck),
			})
			if werr != nil {
				return werr
			}
		case MsgFin:
			logf("campaign complete after %d lease(s)", leases)
			return nil
		case MsgError:
			return fmt.Errorf("dist: worker: coordinator error: %s", m.Err)
		default:
			// Unknown kinds are ignored for forward compatibility.
		}
	}
}

// startHeartbeats keeps one lease alive until the returned stop
// function is called. Write errors end the heartbeater quietly — the
// main loop will surface the broken connection.
func startHeartbeats(conn *Conn, lease int64, every time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if conn.Write(&Msg{T: MsgHeartbeat, Lease: lease}) != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
