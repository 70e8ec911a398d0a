package telemetry

import (
	"strconv"
	"sync/atomic"
)

// Span journal events. A span journal is ordinary journal JSONL (same
// seq/ts framing, same checker) holding paired events:
//
//	span_start: trace, span, name, proc [, parent] [, rparent] [, attrs…]
//	span_end:   span [, outcome] [, attrs…]
//
// span ids are allocated per Tracer (per process, per file) and are
// only unique within one journal; cross-process links use rparent — the
// raw span id of the parent span in *another* process's journal (the
// coordinator's lease span, carried over the dist wire). cmd/tracer
// keys spans by (file, id) and resolves rparent across the files it is
// given, merging per-process journals into one fleet-wide trace.
const (
	EvSpanStart = "span_start"
	EvSpanEnd   = "span_end"
)

// TraceID derives a deterministic campaign-scoped trace id from the
// strings that define the campaign (FNV-1a over the parts with a
// separator). Every process of one distributed campaign computes the
// same id from the same spec, so per-process span journals agree on
// the trace before the first lease ever crosses the wire.
func TraceID(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0x1f // part separator: ("a","b") ≠ ("ab")
		h *= prime64
	}
	return h
}

// Tracer emits spans into a span journal. It is safe for concurrent
// use (emission serializes on the journal mutex, ids and the trace id
// are atomics) and the hot path — Start / End with fixed-shape fields —
// performs no allocation: lines are built in the journal's reused
// buffer through the closure-free begin/end path.
//
// A nil Tracer is valid and inert, as is the zero Span, so
// instrumented code never branches on whether tracing is configured.
type Tracer struct {
	j     *Journal
	proc  string
	trace atomic.Uint64
	next  atomic.Uint64
}

// NewTracer wraps a span journal. proc labels every span with the
// emitting process (e.g. "injector", "coordinator", "w1"); trace is
// the campaign trace id (see TraceID).
func NewTracer(j *Journal, proc string, trace uint64) *Tracer {
	t := &Tracer{j: j, proc: proc}
	t.trace.Store(trace)
	return t
}

// TraceHex returns the trace id as the 16-digit hex string used on the
// dist wire ("" on a nil tracer).
func (t *Tracer) TraceHex() string {
	if t == nil {
		return ""
	}
	const digits = "0123456789abcdef"
	var b [16]byte
	v := t.trace.Load()
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Adopt replaces the trace id with one received over the wire (the
// 16-digit hex form produced by TraceHex). Malformed or empty input is
// ignored: the tracer keeps its locally derived trace.
func (t *Tracer) Adopt(hex string) {
	if t == nil || hex == "" {
		return
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || v == 0 {
		return
	}
	t.trace.Store(v)
}

// Span is a handle to an open span. It is a two-word value — pass it
// by value, store it in structs, send it across goroutines. The zero
// Span is valid and inert.
type Span struct {
	t  *Tracer
	id uint64
}

// Valid reports whether the span is live (was started by a tracer).
func (s Span) Valid() bool { return s.t != nil && s.id != 0 }

// ID returns the span's journal-local id (0 for the zero span). This
// is the value carried as rparent by remote children.
func (s Span) ID() uint64 { return s.id }

// in returns the span's id when it belongs to tracer t, else 0 — a
// span from another tracer cannot be a local parent.
func (s Span) in(t *Tracer) uint64 {
	if s.t == t {
		return s.id
	}
	return 0
}

// start is the single emission path. parent/rparent are raw ids (0 =
// absent); intKey/intVal carry one fixed integer attribute without a
// closure; attrs, when non-nil, appends further fields (cold paths
// only — the func value allocates).
func (t *Tracer) start(name string, parent, rparent uint64, intKey string, intVal int64, attrs func(*Enc)) Span {
	if t == nil || t.j == nil {
		return Span{}
	}
	id := t.next.Add(1)
	e := t.j.begin(EvSpanStart)
	e.Hex("trace", t.trace.Load())
	e.Uint("span", id)
	if parent != 0 {
		e.Uint("parent", parent)
	}
	if rparent != 0 {
		e.Uint("rparent", rparent)
	}
	e.Str("name", name)
	e.Str("proc", t.proc)
	if intKey != "" {
		e.Int(intKey, intVal)
	}
	if attrs != nil {
		t.j.guard(e, attrs)
	}
	t.j.end(e)
	return Span{t: t, id: id}
}

// StartAttrs opens a span with extra attributes (cold paths: the attrs
// closure allocates).
func (t *Tracer) StartAttrs(name string, parent Span, attrs func(*Enc)) Span {
	if t == nil {
		return Span{}
	}
	return t.start(name, parent.in(t), 0, "", 0, attrs)
}

// end is the single close path; outcome "" is omitted.
func (s Span) end(outcome string) {
	if s.t == nil || s.t.j == nil || s.id == 0 {
		return
	}
	e := s.t.j.begin(EvSpanEnd)
	e.Uint("span", s.id)
	if outcome != "" {
		e.Str("outcome", outcome)
	}
	s.t.j.end(e)
}

// End closes the span. Closing the zero Span is a no-op; closing a
// span twice writes two span_end events and is a caller bug that
// tools/checkjournal flags.
func (s Span) End() { s.end("") }

// EndOutcome closes the span with an outcome label (allocation-free).
func (s Span) EndOutcome(outcome string) { s.end(outcome) }

// ---- Campaign integration -------------------------------------------------
//
// The Campaign hub carries one optional Tracer plus two ambient span
// ids: the trace root (the enclosing campaign/worker-lease span) and
// the current phase span. Instrumented code starts child spans under
// the ambient parent without threading Span values through every call.

// SetTraceRoot installs sp as the ambient root: spans started through
// the hub with no open phase parent under it. The dist worker re-roots
// around each lease so lane-batch spans nest under the worker-lease
// span; pass the previous root back to restore it.
func (c *Campaign) SetTraceRoot(sp Span) {
	if c == nil {
		return
	}
	c.rootSpan.Store(sp.in(c.Tracer))
}

// TraceRoot returns the ambient root span (zero when none is set).
func (c *Campaign) TraceRoot() Span {
	if c == nil || c.Tracer == nil {
		return Span{}
	}
	return Span{t: c.Tracer, id: c.rootSpan.Load()}
}

// TraceContext returns the wire form of the trace context — the hex
// trace id — and whether tracing is live on this hub.
func (c *Campaign) TraceContext() (trace string, ok bool) {
	if c == nil || c.Tracer == nil {
		return "", false
	}
	return c.Tracer.TraceHex(), true
}

// ambient returns the current ambient parent id: the open phase span
// when there is one, else the root.
func (c *Campaign) ambient() uint64 {
	if p := c.phaseSpan.Load(); p != 0 {
		return p
	}
	return c.rootSpan.Load()
}

// PhaseDone closes the open phase span, if any. Phase() does this
// implicitly when the next phase starts; call PhaseDone at the end of
// the last phase (Summary does).
func (c *Campaign) PhaseDone() {
	if c == nil || c.Tracer == nil {
		return
	}
	if old := c.phaseSpan.Swap(0); old != 0 {
		Span{t: c.Tracer, id: old}.End()
	}
}

// StartSpan opens a span under the ambient parent. Nil-safe; returns
// the zero Span when the hub has no tracer.
func (c *Campaign) StartSpan(name string) Span {
	if c == nil || c.Tracer == nil {
		return Span{}
	}
	return c.Tracer.start(name, c.ambient(), 0, "", 0, nil)
}

// StartSpanInt opens a span under the ambient parent with one integer
// attribute, without allocating.
func (c *Campaign) StartSpanInt(name, key string, v int64) Span {
	if c == nil || c.Tracer == nil {
		return Span{}
	}
	return c.Tracer.start(name, c.ambient(), 0, key, v, nil)
}

// StartSpanAttrs opens a span under the ambient parent with arbitrary
// attributes (cold paths).
func (c *Campaign) StartSpanAttrs(name string, attrs func(*Enc)) Span {
	if c == nil || c.Tracer == nil {
		return Span{}
	}
	return c.Tracer.start(name, c.ambient(), 0, "", 0, attrs)
}

// StartRemoteSpan opens a span whose parent lives in another process's
// journal: trace is the wire trace id to adopt (may be ""), rparent
// the remote parent's span id (0 = none). Used by the dist worker to
// parent its lease span under the coordinator's.
func (c *Campaign) StartRemoteSpan(name, trace string, rparent uint64, attrs func(*Enc)) Span {
	if c == nil || c.Tracer == nil {
		return Span{}
	}
	c.Tracer.Adopt(trace)
	return c.Tracer.start(name, 0, rparent, "", 0, attrs)
}
