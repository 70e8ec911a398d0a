package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Journal event types. Every journal line is one JSON object with at
// least {"seq":n,"ev":"<type>"} plus an RFC3339Nano "ts" when the
// journal has a clock; the remaining fields are per-type (see
// DESIGN.md §10 for the full schema). tools/checkjournal validates a
// journal file against this schema.
const (
	EvCampaignStart  = "campaign_start"   // total, workers, plan_hash
	EvPhase          = "phase"            // name
	EvExpStart       = "exp_start"        // i
	EvExpFinish      = "exp_finish"       // i, outcome, sens, deviated, first_dev
	EvRetry          = "retry"            // i, attempt, err
	EvQuarantine     = "quarantine"       // i, attempts, err
	EvCheckpointSave = "checkpoint_write" // completed
	EvCheckpointLoad = "checkpoint_load"  // results, quarantined
	EvSummary        = "summary"          // done, retries, quarantined, checkpoints, per-outcome counts
)

// Journal writes structured campaign lifecycle events as JSONL: one
// self-contained JSON object per line, flushed on Close. Writes are
// serialized under a mutex (one line per event, never interleaved) and
// the sequence number is strictly monotonic, so a journal holding
// several campaigns (e.g. the zone and wide campaigns of one core.Run)
// still reads as one ordered stream.
//
// Timestamps come exclusively from the injected clock; a nil clock
// omits the ts field entirely, which keeps journal output reproducible
// in deterministic tests.
type Journal struct {
	clock func() time.Time

	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	seq uint64
	buf []byte
	enc Enc
	err error
}

// NewJournal wraps a writer. clock may be nil (no timestamps).
func NewJournal(w io.Writer, clock func() time.Time) *Journal {
	j := &Journal{clock: clock, w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// OpenJournal creates (truncating) the journal file at path.
func OpenJournal(path string, clock func() time.Time) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: journal: %w", err)
	}
	return NewJournal(f, clock), nil
}

// Close flushes buffered lines and closes the underlying file when the
// journal owns one. It reports the first write error seen over the
// journal's lifetime, so a full disk does not fail silently.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = err
		}
	}
	return j.err
}

// Enc appends fields to the journal line under construction. All
// methods are only valid inside an Emit callback.
type Enc struct{ b []byte }

// Str appends a string field with full JSON escaping.
func (e *Enc) Str(key, v string) {
	e.key(key)
	e.b = appendJSONString(e.b, v)
}

// Int appends an integer field.
func (e *Enc) Int(key string, v int64) {
	e.key(key)
	e.b = strconv.AppendInt(e.b, v, 10)
}

// Uint appends an unsigned integer field.
func (e *Enc) Uint(key string, v uint64) {
	e.key(key)
	e.b = strconv.AppendUint(e.b, v, 10)
}

// Bool appends a boolean field.
func (e *Enc) Bool(key string, v bool) {
	e.key(key)
	e.b = strconv.AppendBool(e.b, v)
}

// Hex appends v as a zero-padded 16-digit hex string (plan hashes).
func (e *Enc) Hex(key string, v uint64) {
	e.key(key)
	e.b = append(e.b, '"')
	e.b = fmt.Appendf(e.b, "%016x", v)
	e.b = append(e.b, '"')
}

func (e *Enc) key(k string) {
	e.b = append(e.b, ',')
	e.b = appendJSONString(e.b, k)
	e.b = append(e.b, ':')
}

// Emit writes one event line. The callback adds the event's fields;
// seq, ts and ev are supplied by the journal. Emit on a nil journal is
// a no-op, so instrumented code never branches on configuration.
func (j *Journal) Emit(ev string, fields func(e *Enc)) {
	if j == nil {
		return
	}
	e := j.begin(ev)
	if fields != nil {
		j.guard(e, fields)
	}
	j.end(e)
}

// guard runs a caller-supplied fields closure on the line opened by
// begin. If the closure panics, the half-built line (corrupt JSON by
// construction) is discarded and the journal unlocked before the panic
// propagates — otherwise one panicking callback would wedge every
// subsequent emit on the held mutex. The closure-free begin/end hot
// path needs no guard: nothing between them can panic.
func (j *Journal) guard(e *Enc, fn func(*Enc)) {
	done := false
	defer func() {
		if !done {
			j.abort(e)
		}
	}()
	fn(e)
	done = true
}

// abort discards the line opened by begin without writing it: the
// sequence number is reclaimed (journal seqs must stay contiguous) and
// the lock released.
func (j *Journal) abort(e *Enc) {
	j.buf = e.b[:0]
	j.seq--
	j.mu.Unlock()
}

// begin locks the journal and opens one event line — seq, optional ts
// and ev — on the journal's reused encoder. The caller appends the
// event's fields and must hand the encoder back to end, which writes
// the line and releases the lock. This is the closure-free emit path
// used by fixed-shape hot events (span start/end): no func value, no
// captures, no per-event allocation.
func (j *Journal) begin(ev string) *Enc {
	j.mu.Lock()
	j.seq++
	j.enc.b = append(j.buf[:0], `{"seq":`...)
	j.enc.b = strconv.AppendUint(j.enc.b, j.seq, 10)
	if j.clock != nil {
		j.enc.Str("ts", j.clock().UTC().Format(time.RFC3339Nano))
	}
	j.enc.Str("ev", ev)
	return &j.enc
}

// end closes the line opened by begin, writes it and unlocks.
func (j *Journal) end(e *Enc) {
	e.b = append(e.b, '}', '\n')
	j.buf = e.b
	if _, err := j.w.Write(e.b); err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// appendJSONString appends a JSON-quoted, escaped string.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch r {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			if r < 0x20 {
				b = fmt.Appendf(b, `\u%04x`, r)
			} else {
				b = utf8.AppendRune(b, r)
			}
		}
	}
	return append(b, '"')
}
