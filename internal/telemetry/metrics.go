// Package telemetry is the observability layer of the campaign engine:
// an allocation-free atomic metrics registry, a structured JSONL
// campaign journal, a periodic progress reporter and an HTTP status
// server (expvar + pprof + /progress).
//
// Telemetry is strictly out-of-band. Nothing in this package feeds the
// campaign report: events carry timestamps only through an injected
// clock, journal lines go to their own file, progress goes to stderr,
// and every instrumentation hook in the engine is nil-safe — a nil
// *Campaign turns the whole layer into a handful of pointer checks.
// The merged campaign report is therefore byte-identical with
// telemetry on or off, at any worker count (asserted by the
// neutrality matrix test in internal/inject).
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; Add and Inc never allocate.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (set, add, read).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket edges (inclusive); one implicit overflow bucket catches
// everything above the last bound. Observe is allocation-free and safe
// for concurrent use.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// NewHistogram builds a histogram over ascending upper bounds.
func NewHistogram(bounds ...int64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets renders the histogram as (upper bound, count) pairs plus the
// overflow bucket (bound = -1).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		b := Bucket{Le: int64(-1), N: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.Le = h.bounds[i]
		}
		out = append(out, b)
	}
	return out
}

// Bucket is one histogram cell: count of observations <= Le (Le = -1
// marks the overflow bucket).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// Registry is a named metric set. Registration (get-or-create) takes a
// mutex and may allocate; the returned handles are then used directly,
// so the record path stays allocation-free. Snapshots render metrics
// in sorted name order, so serialized forms are stable.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore the bounds).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram in a registry snapshot.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// RegistrySnapshot is a point-in-time copy of every metric, with
// deterministic (sorted) name order inside each section.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry. encoding/json sorts map keys, so the
// rendered snapshot is byte-stable for a given state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters { //det:order copying into a map
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges { //det:order copying into a map
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms { //det:order copying into a map
		// Buckets before count, mirroring Observe's bucket-then-n write
		// order from the other side: a concurrent snapshot then sees
		// bucket sums ahead of the count by at most the in-flight
		// Observes (one per writer). Reading the count first would let
		// every Observe landing mid-snapshot inflate the buckets past
		// it unboundedly.
		b := h.Buckets()
		s.Histograms[name] = HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: b}
	}
	return s
}
