package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call (spans inside the program are a later change).
// Spans of one op share Op; Parent is the index of the enclosing span
// or -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs stay untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// do times f under a span.
func (t *tracer) do(name string, op, parent int, f func()) {
	id := t.start(name, op, parent)
	f()
	t.end(id)
}

// perOp sums the closed spans of one name per op and returns the sums
// in op order, scaled by 1/unit (time.Millisecond → ms). A layer an op
// calls twice (one call per design, say) is thereby charged once per
// op, which is what an op's wall time is compared against.
func (t *tracer) perOp(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int]float64{}
	var ops []int
	for _, s := range t.spans {
		if s.Name != name || s.EndNs == 0 {
			continue
		}
		if _, seen := byOp[s.Op]; !seen {
			ops = append(ops, s.Op)
		}
		byOp[s.Op] += float64(s.EndNs-s.StartNs) / float64(unit)
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// each returns every closed span of one name as its own sample.
func (t *tracer) each(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs != 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/float64(unit))
		}
	}
	return out
}
