package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// DefaultLoopback rewrites a listen address so that an empty address
// or one with a wildcard host ("", ":8080", "0.0.0.0:8080", "[::]:8080")
// binds 127.0.0.1 instead of every interface. Addresses naming a
// concrete host pass through unchanged, as do strings net.SplitHostPort
// cannot parse (net.Listen reports those). Exported so daemons
// embedding their own HTTP listener (cmd/served) share the same
// default-closed posture.
func DefaultLoopback(addr string) string {
	if addr == "" {
		return "127.0.0.1:0"
	}
	if strings.HasPrefix(addr, ":") {
		return "127.0.0.1" + addr
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	switch host {
	case "", "0.0.0.0", "::", "*":
		return net.JoinHostPort("127.0.0.1", port)
	}
	return addr
}

// StatusServer is the live-campaign HTTP endpoint: /progress (campaign
// snapshot JSON), /metrics (Prometheus text format 0.0.4),
// /metrics.json (registry snapshot JSON) and /debug/pprof/*. It holds
// no process-global state: a process may cycle many campaigns through
// ServeStatus and retains none of them once their server is closed.
//
// Security note: the campaign endpoint is unauthenticated and pprof
// exposes process internals, so ServeStatus binds loopback unless the
// operator explicitly names a concrete interface — "", ":8080",
// "0.0.0.0:8080" and "[::]:8080" all become loopback (see
// DefaultLoopback).
type StatusServer struct {
	// Addr is the bound address (useful with a ":0" listener).
	Addr string
	srv  *http.Server
}

// ServeStatus starts the status server for the campaign and returns
// once the listener is bound (the HTTP loop runs in a goroutine).
// Empty and wildcard-host addresses bind loopback.
func ServeStatus(addr string, c *Campaign) (*StatusServer, error) {
	ln, err := net.Listen("tcp", DefaultLoopback(addr))
	if err != nil {
		return nil, fmt.Errorf("telemetry: status server: %w", err)
	}

	mux := http.NewServeMux()
	ch := CampaignHandler(c)
	mux.Handle("/progress", ch)
	mux.Handle("/metrics", ch)
	mux.Handle("/metrics.json", ch)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &StatusServer{Addr: ln.Addr().String(), srv: newHTTPServer(mux)}
	go s.srv.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Close
	return s, nil
}

// newHTTPServer wraps a handler with the slow-client limits every
// server in this package binds: a slow-loris peer that trickles header
// bytes or parks idle keep-alive connections must not pin a daemon's
// connections forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// CampaignHandler serves one campaign's observer endpoints — /progress
// (snapshot JSON), /metrics and /metrics.json (ServeMetrics) — relative
// to its own mux root. It is the per-campaign building block:
// ServeStatus mounts one for the process campaign, and a multi-campaign
// daemon (internal/serve) mounts one per job under /jobs/{id}/.
func CampaignHandler(c *Campaign) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, c.Snapshot())
	})
	metrics := func(w http.ResponseWriter, r *http.Request) {
		if c == nil || c.Registry == nil {
			http.Error(w, "no campaign", http.StatusNotFound)
			return
		}
		ServeMetrics(w, r, c.Registry)
	}
	mux.HandleFunc("/metrics", metrics)
	mux.HandleFunc("/metrics.json", metrics)
	return mux
}

// ServeMetrics renders a registry the two ways every server in the
// repo exposes it: the JSON snapshot on a path ending in ".json",
// Prometheus text format 0.0.4 on any other.
func ServeMetrics(w http.ResponseWriter, r *http.Request, reg *Registry) {
	snap := reg.Snapshot()
	if strings.HasSuffix(r.URL.Path, ".json") {
		writeJSON(w, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, snap)
}

// Close shuts the listener down.
func (s *StatusServer) Close() error {
	if s == nil {
		return nil
	}
	s.srv.SetKeepAlivesEnabled(false)
	return s.srv.Close()
}

// writeJSON marshals fully before touching the ResponseWriter: an
// encoding failure (e.g. a NaN that slipped into a float field) must
// surface as a 500, not as a silently truncated 200 body handed to a
// polling client.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("telemetry: encode: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n')) //nolint:errcheck — best-effort status output
}
