package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// metricDef is one line of the ledger. BENCHMARK.json lists exactly
// these (a test holds the two in step); Bound is the share of the
// parent's median an end-to-end metric may worsen by.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees, measured untraced. Every
// workload reports every one of them, so each is defined for all five:
// op_wall_s on served_mix is the submit→report latency of engine-run
// jobs (the issue's miss_p50_ms), exp_per_s there counts the plan rows
// of every answered job, cache hit or not (so it follows jobs_per_s).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_wall_s", "s", "lower", 0.10},
	{"exp_per_s", "rows/s", "higher", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is measured in a separate traced run. A metric a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	// Stage spans of the staged core.Run replay (campaign workloads).
	{Name: "memsys.build_ms", Unit: "ms", Better: "lower"},
	{Name: "zones.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "fmea.worksheet_ms", Unit: "ms", Better: "lower"},
	{Name: "drc.run_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.golden_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.zone_campaign_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.wide_campaign_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.toggle_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_frac", Unit: "ratio", Better: "lower"},
	// Engine counters from a telemetry hub; they repeat exactly.
	{Name: "inject.rows", Unit: "count", Better: "higher"},
	{Name: "inject.sim_cycles", Unit: "count", Better: "lower"},
	{Name: "inject.batches", Unit: "count", Better: "lower"},
	{Name: "inject.lane_occupancy", Unit: "ratio", Better: "higher"},
	{Name: "inject.rows_static_pruned", Unit: "count", Better: "higher"},
	{Name: "inject.rows_collapsed", Unit: "count", Better: "higher"},
	{Name: "inject.rows_inherited", Unit: "count", Better: "higher"},
	{Name: "inject.simulated_frac", Unit: "ratio", Better: "lower"},
	{Name: "inject.ns_per_sim_cycle", Unit: "ns", Better: "lower"},
	// Micro-lines: fixed-iteration loops on the workload's netlist.
	{Name: "sim.step_ns_per_gate", Unit: "ns", Better: "lower"},
	{Name: "sim.new_instance_us", Unit: "us", Better: "lower"},
	{Name: "sim.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "sim.restore_us", Unit: "us", Better: "lower"},
	{Name: "simc.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "simc.step_ns_per_op_lane", Unit: "ns", Better: "lower"},
	{Name: "simc.bin_step_ns_per_op_lane", Unit: "ns", Better: "lower"},
	{Name: "faultsim.faults_per_s", Unit: "faults/s", Better: "higher"},
	{Name: "statfault.new_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.ckpt_encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "inject.ckpt_decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "inject.ckpt_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "inject.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.range32_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.range_fixed_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.par2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "dist.msg_rtt_us", Unit: "us", Better: "lower"},
	// Fleet counters and lease occupancy (fleet_2w).
	{Name: "dist.leases_issued", Unit: "count", Better: "lower"},
	{Name: "dist.leases_expired", Unit: "count", Better: "lower"},
	{Name: "dist.worker_retries", Unit: "count", Better: "lower"},
	{Name: "dist.lease_occupancy", Unit: "ratio", Better: "higher"},
	// Daemon and client-side spans (served_mix).
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.shell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.poll_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.report_fetch_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.hit_p75_us", Unit: "us", Better: "lower"},
	{Name: "serve.regrade_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.journal_kb_per_job", Unit: "KB", Better: "lower"},
	// Instrumentation cost, reported rather than hidden.
	{Name: "telemetry.hub_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// User-visible figures that exist on one workload only. The driver
	// wants every end-to-end metric from every workload, so these are
	// recorded here, ungated (see README "Demoted metrics").
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "miss_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

// metric is one measured line: the reported value plus the spread of
// the samples behind it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Traced       bool     `json:"traced"`
	Sizing       string   `json:"sizing"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	DigestPinned bool     `json:"digest_pinned"`
	Metrics      []metric `json:"metrics"`
	Failures     []string `json:"failures,omitempty"`
	Spans        []span   `json:"spans,omitempty"`

	mu sync.Mutex // served_mix books failures from two clients
}

// fail records one failed op (or failed invariant) with its reason;
// only the first few reasons are kept.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// addSamples reports the median of samples (no-op when empty).
func (r *result) addSamples(name, unit string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	r.add(name, unit, median(samples), samples)
}

// add reports value; samples (may be nil) only feed the quartiles.
func (r *result) add(name, unit string, value float64, samples []float64) {
	m := metric{Name: name, Unit: unit, Value: value, Q1: value, Median: value, Q3: value, N: 1}
	if len(samples) > 0 {
		m.Q1, m.Median, m.Q3, m.N = quantile(samples, 0.25), median(samples), quantile(samples, 0.75), len(samples)
	}
	r.Metrics = append(r.Metrics, m)
}

func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// fnum is the one float format of every output, so the JSON is
// byte-stable for equal values and keeps all measured digits.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printTable writes the human-readable ledger of one run.
func (r *result) printTable(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload=%s seed=%d mode=%s sizing=%s attempted=%d failed=%d digest_pinned=%v\n",
		r.Workload, r.Seed, mode, r.Sizing, r.Attempted, r.Failed, r.DigestPinned)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
	fmt.Fprintf(w, "  %-32s %-9s %14s %14s %14s %14s %6s\n", "metric", "unit", "value", "q1", "median", "q3", "n")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-32s %-9s %14.6g %14.6g %14.6g %14.6g %6d\n", m.Name, m.Unit, m.Value, m.Q1, m.Median, m.Q3, m.N)
	}
}

// contractLine renders the driver's result line: exactly the metrics of
// the run's kind (end-to-end untraced, per-layer traced), in catalogue
// order; a per-layer metric the workload does not exercise reads 0.
func (r *result) contractLine() string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, r.Failed == 0, r.Attempted, r.Failed)
	for i, d := range defs {
		if i > 0 {
			b.WriteString(", ")
		}
		m, _ := r.lookup(d.Name)
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.Name, fnum(m.Value), d.Unit)
	}
	b.WriteString("}}")
	return b.String()
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (VmHWM); 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
