// Package dist implements distributed injection campaigns: a
// coordinator that leases disjoint plan-index ranges to worker
// processes, and a worker loop that prepares the campaign once, runs
// the supervised engine (inject.Prepared.RunRange) over each leased
// range and streams the completed partial state back as CRC-checked
// checkpoint records.
//
// The transport is a line-delimited JSON protocol over any
// io.ReadWriteCloser — a TCP connection for remote workers, a
// stdin/stdout pipe pair for subprocess workers. Robustness is the
// point of the layer: leases carry TTLs refreshed by heartbeats, dead
// or wedged workers are detected and their leases revoked and
// re-issued with capped exponential backoff, execution is
// at-least-once (duplicate range results are verified byte-identical,
// never double-counted), ranges that keep killing workers are
// quarantined with conservative λDU accounting, and the coordinator
// degrades gracefully down to local-only execution when every worker
// vanishes. The determinism contract survives all of it: the merged
// report is byte-identical to a single-process serial run at any
// cluster size, any kill point and any lease schedule, because the
// interchange format is the canonical checkpoint encoding and the
// final merge is the same in-order merge the in-process runner uses.
//
// The package never samples the wall clock: every timestamp flows
// through an injected clock (it is part of the lintdeterminism linted
// set), so lease scheduling is testable with a fake clock and the
// merge path is a pure function of the collected records.
package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"encoding/json"
)

// ProtocolVersion is the wire protocol version. A hello with a
// different version is rejected before any lease is issued.
const ProtocolVersion = 1

// maxLineBytes caps one protocol line. Result messages carry a
// base64-encoded checkpoint for one leased range (~100 bytes per plan
// row), so even pathological ranges stay far below this; anything
// larger is a corrupt or hostile peer.
const maxLineBytes = 64 << 20

// Message kinds.
const (
	// MsgHello is the worker's opening message: protocol version,
	// worker name and the (plan hash, plan length) fingerprint the
	// coordinator validates before leasing — a worker built from a
	// different design, seed or plan shape is turned away up front.
	MsgHello = "hello"
	// MsgLease grants one plan-index range [Lo, Hi) to a worker, with
	// the TTL its heartbeats must keep refreshed.
	MsgLease = "lease"
	// MsgHeartbeat keeps a lease alive while its range is running.
	MsgHeartbeat = "heartbeat"
	// MsgResult returns one completed range as canonical checkpoint
	// bytes (EncodeCheckpoint over the range's records).
	MsgResult = "result"
	// MsgFail reports that the worker could not complete its lease.
	MsgFail = "fail"
	// MsgFin tells a worker the campaign is complete; the worker exits
	// cleanly.
	MsgFin = "fin"
	// MsgError is a terminal coordinator-side rejection (bad hello,
	// campaign failure); the worker exits with an error.
	MsgError = "error"
)

// Msg is one protocol message; T selects the kind and the other
// fields are kind-specific (see the Msg* constants).
type Msg struct {
	T string `json:"t"`

	// Hello fields.
	V        int    `json:"v,omitempty"`
	Worker   string `json:"worker,omitempty"`
	PlanHash string `json:"plan_hash,omitempty"`
	PlanLen  int    `json:"plan_len,omitempty"`

	// Lease routing: the lease id (issued by the coordinator, echoed
	// by heartbeat/result/fail) and the range bounds.
	Lease int64 `json:"lease,omitempty"`
	Lo    int   `json:"lo,omitempty"`
	Hi    int   `json:"hi,omitempty"`
	TTLMs int64 `json:"ttl_ms,omitempty"`

	// Trace context on a lease (optional; additive in protocol v1 —
	// untraced peers ignore unknown JSON fields): the campaign trace id
	// in hex and the coordinator's lease span id. A traced worker
	// adopts the trace and parents its lease span under Span, so the
	// per-process span journals merge into one fleet-wide trace.
	Trace string `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`

	// Result payload: canonical checkpoint bytes (JSON base64).
	Ckpt []byte `json:"ckpt,omitempty"`

	// Error text for fail/error.
	Err string `json:"err,omitempty"`
}

// Conn frames Msgs as JSON lines over a stream. Writes are serialized
// (the worker's heartbeater and result sender share one connection);
// reads are single-consumer.
type Conn struct {
	rw io.ReadWriteCloser
	sc *bufio.Scanner

	wmu sync.Mutex
	w   *bufio.Writer
}

// NewConn wraps a byte stream in the line-JSON framing.
func NewConn(rw io.ReadWriteCloser) *Conn {
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	return &Conn{rw: rw, sc: sc, w: bufio.NewWriter(rw)}
}

// Read returns the next message, or an error on EOF, framing overflow
// or malformed JSON.
func (c *Conn) Read() (*Msg, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, fmt.Errorf("dist: read: %w", err)
		}
		return nil, io.EOF
	}
	var m Msg
	if err := json.Unmarshal(c.sc.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("dist: bad message: %w", err)
	}
	if m.T == "" {
		return nil, errors.New("dist: bad message: missing kind")
	}
	return &m, nil
}

// Write sends one message as a JSON line and flushes it.
func (c *Conn) Write(m *Msg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encode: %w", err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(b); err != nil {
		return fmt.Errorf("dist: write: %w", err)
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("dist: write: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("dist: write: %w", err)
	}
	return nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }
