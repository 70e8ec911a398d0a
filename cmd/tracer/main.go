// Command tracer analyzes span journals written by traced campaigns
// (injector -trace, campaignd -trace) and reports where the time went:
// the fleet's critical path, per-phase time breakdown, per-process
// utilization timelines, lease straggler and re-issue attribution, and
// lane-occupancy-weighted kernel time.
//
// Each argument is one process's span journal (JSONL; non-span events
// are skipped, so the combined campaign journal works as input too).
// Spans are keyed by (file, id) — span ids are only unique within one
// process — and cross-process links arrive as rparent references,
// which resolve against other files' span ids in argument order. Give
// the coordinator's journal first, then the workers', and the
// per-process journals merge into one fleet-wide trace.
//
// The output is byte-stable: the same journals produce the same bytes
// on every run, in both text and -json form. All ordering is by
// explicit sort keys with full tie-breaks; timestamps are read from
// the journals, never from the machine running the analysis.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// rec is one journal line. Span events carry a subset of these fields;
// attribute keys written by the instrumented layers (lease bounds,
// lane counts, attempt numbers) are flattened into the same object.
type rec struct {
	Seq     uint64 `json:"seq"`
	TS      string `json:"ts"`
	Ev      string `json:"ev"`
	Trace   string `json:"trace"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	RParent uint64 `json:"rparent"`
	Name    string `json:"name"`
	Proc    string `json:"proc"`
	Outcome string `json:"outcome"`

	// Known span attributes.
	Lease   int64 `json:"lease"`
	Lo      int64 `json:"lo"`
	Hi      int64 `json:"hi"`
	Worker  int64 `json:"worker"`
	Attempt int64 `json:"attempt"`
	Lanes   int64 `json:"lanes"`
}

// span is one reconstructed span.
type span struct {
	file    int    // argument index of the owning journal
	order   int    // global load order (tie-break of last resort)
	id      uint64 // process-local span id
	name    string
	proc    string
	trace   string
	outcome string
	start   rec // the span_start record (attribute access)

	hasStart, hasEnd bool // timestamps present
	startT, endT     time.Time
	closed           bool

	parent   *span
	children []*span // in load order
}

func (s *span) dur() time.Duration { return s.endT.Sub(s.startT) }

// timed reports whether the span has a measurable duration.
func (s *span) timed() bool { return s.closed && s.hasStart && s.hasEnd }

// trace is the merged fleet-wide trace.
type trace struct {
	files []fileInfo
	spans []*span // load order
	roots []*span

	skipped    int // non-span journal events
	orphanEnds int // span_end with no matching open span
	unclosed   int

	hasTimes   bool
	start, end time.Time // trace wall bounds over timed spans
}

type fileInfo struct {
	Path  string `json:"path"`
	Proc  string `json:"proc"`
	Spans int    `json:"spans"`
}

// load reads and links every journal, in argument order.
func load(paths []string) (*trace, error) {
	tr := &trace{}
	byKey := map[[2]uint64]*span{} // (file, id) -> span
	order := 0
	for fi, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		info := fileInfo{Path: path}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var r rec
			if err := json.Unmarshal(line, &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: bad journal line %q: %v", path, line, err)
			}
			switch r.Ev {
			case "span_start":
				s := &span{
					file: fi, order: order, id: r.Span,
					name: r.Name, proc: r.Proc, trace: r.Trace, start: r,
				}
				order++
				if r.TS != "" {
					t, err := time.Parse(time.RFC3339Nano, r.TS)
					if err != nil {
						f.Close()
						return nil, fmt.Errorf("%s: bad ts %q: %v", path, r.TS, err)
					}
					s.startT, s.hasStart = t, true
				}
				byKey[[2]uint64{uint64(fi), r.Span}] = s
				tr.spans = append(tr.spans, s)
				info.Spans++
				if info.Proc == "" {
					info.Proc = r.Proc
				}
			case "span_end":
				s, ok := byKey[[2]uint64{uint64(fi), r.Span}]
				if !ok || s.closed {
					tr.orphanEnds++
					continue
				}
				s.closed = true
				s.outcome = r.Outcome
				if r.TS != "" {
					t, err := time.Parse(time.RFC3339Nano, r.TS)
					if err != nil {
						f.Close()
						return nil, fmt.Errorf("%s: bad ts %q: %v", path, r.TS, err)
					}
					s.endT, s.hasEnd = t, true
				}
			default:
				tr.skipped++
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		f.Close()
		tr.files = append(tr.files, info)
	}

	// Link: parent within the same file, rparent across files (first
	// matching id in a different file, argument order — span ids are
	// process-local, so cross-file is the only meaning rparent has).
	byID := map[uint64][]*span{}
	for _, s := range tr.spans {
		byID[s.id] = append(byID[s.id], s) // load order: deterministic
	}
	for _, s := range tr.spans {
		if p, ok := byKey[[2]uint64{uint64(s.file), s.start.Parent}]; ok && s.start.Parent != 0 && p != s {
			s.parent = p
		} else if s.start.RParent != 0 {
			for _, cand := range byID[s.start.RParent] {
				if cand.file != s.file {
					s.parent = cand
					break
				}
			}
		}
		if s.parent != nil {
			s.parent.children = append(s.parent.children, s)
		}
	}
	for _, s := range tr.spans {
		if s.parent == nil {
			tr.roots = append(tr.roots, s)
		}
		if !s.closed {
			tr.unclosed++
		}
		if s.timed() {
			if !tr.hasTimes || s.startT.Before(tr.start) {
				tr.start = s.startT
			}
			if !tr.hasTimes || s.endT.After(tr.end) {
				tr.end = s.endT
			}
			tr.hasTimes = true
		}
	}
	return tr, nil
}

// report is the analysis result; the JSON output marshals it directly
// and the text output renders the same data.
type report struct {
	Files      []fileInfo  `json:"files"`
	Traces     []string    `json:"traces"`
	Spans      int         `json:"spans"`
	Unclosed   int         `json:"unclosed"`
	OrphanEnds int         `json:"orphan_ends,omitempty"`
	Skipped    int         `json:"skipped_events"`
	HasTimes   bool        `json:"has_times"`
	WallNs     int64       `json:"wall_ns"`
	Phases     []phaseRow  `json:"phases"`
	Critical   []critRow   `json:"critical_path"`
	Procs      []procRow   `json:"procs"`
	Leases     leaseReport `json:"leases"`
	Kernel     kernelRow   `json:"kernel"`
}

type phaseRow struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
}

type critRow struct {
	Depth   int    `json:"depth"`
	Name    string `json:"name"`
	Proc    string `json:"proc"`
	StartNs int64  `json:"start_ns"` // offset from trace start
	DurNs   int64  `json:"dur_ns"`
	Outcome string `json:"outcome,omitempty"`
}

type procRow struct {
	Proc     string  `json:"proc"`
	Spans    int     `json:"spans"`
	BusyNs   int64   `json:"busy_ns"`
	UtilPct  float64 `json:"util_pct"`
	Timeline string  `json:"timeline"`
}

type leaseReport struct {
	Outcomes   []outcomeRow `json:"outcomes"`
	Reissues   []leaseRow   `json:"reissues"`
	Stragglers []leaseRow   `json:"stragglers"`
}

type outcomeRow struct {
	Outcome string `json:"outcome"`
	Count   int    `json:"count"`
}

type leaseRow struct {
	Lease    int64   `json:"lease"`
	Lo       int64   `json:"lo"`
	Hi       int64   `json:"hi"`
	Worker   int64   `json:"worker"`
	Attempt  int64   `json:"attempt"`
	Outcome  string  `json:"outcome"`
	DurNs    int64   `json:"dur_ns"`
	MsPerRow float64 `json:"ms_per_row"`
}

type kernelRow struct {
	Batches    int     `json:"batches"`
	KernelNs   int64   `json:"kernel_ns"`
	WeightedNs int64   `json:"lane_weighted_ns"`
	LanePct    float64 `json:"lane_occupancy_pct"`
}

// analyze computes every report section from the linked trace.
func analyze(tr *trace) *report {
	rep := &report{
		Files:    tr.files,
		Spans:    len(tr.spans),
		Unclosed: tr.unclosed, OrphanEnds: tr.orphanEnds, Skipped: tr.skipped,
		HasTimes: tr.hasTimes,
	}
	if tr.hasTimes {
		rep.WallNs = tr.end.Sub(tr.start).Nanoseconds()
	}

	// Distinct trace ids, sorted.
	seen := map[string]bool{}
	for _, s := range tr.spans {
		if s.trace != "" && !seen[s.trace] {
			seen[s.trace] = true
			rep.Traces = append(rep.Traces, s.trace)
		}
	}
	sort.Strings(rep.Traces)

	rep.Phases = phaseBreakdown(tr)
	rep.Critical = criticalPath(tr)
	rep.Procs = procUtilization(tr)
	rep.Leases = leaseAttribution(tr)
	rep.Kernel = kernelOccupancy(tr)
	return rep
}

// phaseBreakdown aggregates spans by name: count, and for timed spans
// total/min/max duration. Sorted by total descending, then name.
func phaseBreakdown(tr *trace) []phaseRow {
	idx := map[string]int{}
	var rows []phaseRow
	for _, s := range tr.spans {
		i, ok := idx[s.name]
		if !ok {
			i = len(rows)
			idx[s.name] = i
			rows = append(rows, phaseRow{Name: s.name})
		}
		rows[i].Count++
		if !s.timed() {
			continue
		}
		d := s.dur().Nanoseconds()
		rows[i].TotalNs += d
		if rows[i].MinNs == 0 || d < rows[i].MinNs {
			rows[i].MinNs = d
		}
		if d > rows[i].MaxNs {
			rows[i].MaxNs = d
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalNs != rows[j].TotalNs {
			return rows[i].TotalNs > rows[j].TotalNs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// criticalPath walks the last-finisher chain: starting from the trace
// root (the earliest-starting root span), each step descends into the
// child that finished last — the child that determined when its parent
// could end. The chain is the lower bound on campaign wall time; the
// fleet cannot finish before it no matter how wide it scales.
func criticalPath(tr *trace) []critRow {
	if !tr.hasTimes {
		return nil
	}
	var root *span
	for _, s := range tr.roots {
		if !s.timed() {
			continue
		}
		if root == nil || s.startT.Before(root.startT) ||
			(s.startT.Equal(root.startT) && (s.file < root.file || (s.file == root.file && s.order < root.order))) {
			root = s
		}
	}
	if root == nil {
		return nil
	}
	var rows []critRow
	for depth, cur := 0, root; cur != nil; depth++ {
		rows = append(rows, critRow{
			Depth: depth, Name: cur.name, Proc: cur.proc,
			StartNs: cur.startT.Sub(tr.start).Nanoseconds(),
			DurNs:   cur.dur().Nanoseconds(),
			Outcome: cur.outcome,
		})
		var next *span
		for _, ch := range cur.children {
			if !ch.timed() {
				continue
			}
			if next == nil || ch.endT.After(next.endT) ||
				(ch.endT.Equal(next.endT) && (ch.file < next.file || (ch.file == next.file && ch.order < next.order))) {
				next = ch
			}
		}
		cur = next
	}
	return rows
}

// procUtilization merges each process's leaf-span intervals (inner
// spans — the ones actually doing work, not waiting on children) and
// renders busy time, utilization against the trace wall, and a
// 40-bucket timeline.
func procUtilization(tr *trace) []procRow {
	type interval struct{ a, b time.Time }
	procIdx := map[string]int{}
	var procs []string
	ivs := map[string][]interval{}
	counts := map[string]int{}
	for _, s := range tr.spans {
		if _, ok := procIdx[s.proc]; !ok {
			procIdx[s.proc] = len(procs)
			procs = append(procs, s.proc)
		}
		counts[s.proc]++
		if len(s.children) == 0 && s.timed() {
			ivs[s.proc] = append(ivs[s.proc], interval{s.startT, s.endT})
		}
	}
	sort.Strings(procs)

	wall := tr.end.Sub(tr.start)
	var rows []procRow
	for _, p := range procs {
		row := procRow{Proc: p, Spans: counts[p]}
		spans := ivs[p]
		sort.Slice(spans, func(i, j int) bool {
			if !spans[i].a.Equal(spans[j].a) {
				return spans[i].a.Before(spans[j].a)
			}
			return spans[i].b.Before(spans[j].b)
		})
		var merged []interval
		for _, iv := range spans {
			if n := len(merged); n > 0 && !iv.a.After(merged[n-1].b) {
				if iv.b.After(merged[n-1].b) {
					merged[n-1].b = iv.b
				}
				continue
			}
			merged = append(merged, iv)
		}
		var busy time.Duration
		for _, iv := range merged {
			busy += iv.b.Sub(iv.a)
		}
		row.BusyNs = busy.Nanoseconds()
		if tr.hasTimes && wall > 0 {
			row.UtilPct = 100 * float64(busy) / float64(wall)
			const buckets = 40
			var b strings.Builder
			for i := 0; i < buckets; i++ {
				b0 := tr.start.Add(wall * time.Duration(i) / buckets)
				b1 := tr.start.Add(wall * time.Duration(i+1) / buckets)
				var cover time.Duration
				for _, iv := range merged {
					lo, hi := iv.a, iv.b
					if lo.Before(b0) {
						lo = b0
					}
					if hi.After(b1) {
						hi = b1
					}
					if hi.After(lo) {
						cover += hi.Sub(lo)
					}
				}
				frac := float64(cover) / float64(b1.Sub(b0))
				switch {
				case frac < 0.01:
					b.WriteByte(' ')
				case frac < 1.0/3:
					b.WriteRune('░')
				case frac < 2.0/3:
					b.WriteRune('▒')
				default:
					b.WriteRune('█')
				}
			}
			row.Timeline = b.String()
		}
		rows = append(rows, row)
	}
	return rows
}

// leaseAttribution reads the coordinator's lease spans: outcome
// counts, every re-issued range (attempt > 1 — each one is a recovery
// from an expiry, failure or dead worker), and the slowest leases by
// per-row time (the stragglers).
func leaseAttribution(tr *trace) leaseReport {
	var lr leaseReport
	outcomes := map[string]int{}
	var leases []leaseRow
	for _, s := range tr.spans {
		if s.name != "lease" {
			continue
		}
		out := s.outcome
		if !s.closed {
			out = "open"
		} else if out == "" {
			out = "done"
		}
		outcomes[out]++
		row := leaseRow{
			Lease: s.start.Lease, Lo: s.start.Lo, Hi: s.start.Hi,
			Worker: s.start.Worker, Attempt: s.start.Attempt, Outcome: out,
		}
		if s.timed() {
			row.DurNs = s.dur().Nanoseconds()
			if rows := s.start.Hi - s.start.Lo; rows > 0 {
				row.MsPerRow = float64(row.DurNs) / 1e6 / float64(rows)
			}
		}
		leases = append(leases, row)
	}
	var outs []string
	for o := range outcomes { //det:order collecting before sort
		outs = append(outs, o)
	}
	sort.Strings(outs)
	for _, o := range outs {
		lr.Outcomes = append(lr.Outcomes, outcomeRow{Outcome: o, Count: outcomes[o]})
	}

	for _, l := range leases {
		if l.Attempt > 1 {
			lr.Reissues = append(lr.Reissues, l)
		}
	}
	sort.Slice(lr.Reissues, func(i, j int) bool {
		a, b := lr.Reissues[i], lr.Reissues[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Lease < b.Lease
	})

	var timed []leaseRow
	for _, l := range leases {
		if l.DurNs > 0 && l.Hi > l.Lo {
			timed = append(timed, l)
		}
	}
	sort.Slice(timed, func(i, j int) bool {
		a, b := timed[i], timed[j]
		if a.MsPerRow != b.MsPerRow {
			return a.MsPerRow > b.MsPerRow
		}
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Lease < b.Lease
	})
	if len(timed) > 5 {
		timed = timed[:5]
	}
	lr.Stragglers = timed
	return lr
}

// kernelOccupancy weighs batch spans by their lane occupancy: a batch
// of k experiments on the 64-lane kernel costs one batch's wall time
// whether k is 3 or 64, so weighted time Σ dur·lanes/64 against raw
// kernel time Σ dur measures how full the lanes ran.
func kernelOccupancy(tr *trace) kernelRow {
	var k kernelRow
	var weighted float64
	for _, s := range tr.spans {
		if s.name != "batch" || !s.timed() {
			continue
		}
		k.Batches++
		d := s.dur().Nanoseconds()
		k.KernelNs += d
		lanes := s.start.Lanes
		if lanes <= 0 {
			lanes = 1
		}
		if lanes > 64 {
			lanes = 64
		}
		weighted += float64(d) * float64(lanes) / 64
	}
	k.WeightedNs = int64(weighted)
	if k.KernelNs > 0 {
		k.LanePct = 100 * weighted / float64(k.KernelNs)
	}
	return k
}

func ns(v int64) string { return time.Duration(v).String() }

// writeText renders the byte-stable text report.
func writeText(w *bytes.Buffer, rep *report) {
	fmt.Fprintf(w, "trace report: %d file(s), %d span(s), %d unclosed, %d non-span event(s) skipped\n",
		len(rep.Files), rep.Spans, rep.Unclosed, rep.Skipped)
	for _, f := range rep.Files {
		fmt.Fprintf(w, "  %-12s %4d span(s)  %s\n", f.Proc, f.Spans, f.Path)
	}
	if len(rep.Traces) > 0 {
		fmt.Fprintf(w, "  trace id(s): %s\n", strings.Join(rep.Traces, ", "))
	}
	if !rep.HasTimes {
		fmt.Fprintf(w, "  journal has no timestamps: durations, critical path and utilization unavailable\n")
	} else {
		fmt.Fprintf(w, "  wall: %s\n", ns(rep.WallNs))
	}

	fmt.Fprintf(w, "\nphase breakdown (by total time)\n")
	fmt.Fprintf(w, "  %-16s %6s %12s %12s %12s\n", "name", "count", "total", "min", "max")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  %-16s %6d %12s %12s %12s\n", p.Name, p.Count, ns(p.TotalNs), ns(p.MinNs), ns(p.MaxNs))
	}

	if len(rep.Critical) > 0 {
		fmt.Fprintf(w, "\ncritical path (last-finisher chain; the wall-time lower bound)\n")
		for _, c := range rep.Critical {
			out := ""
			if c.Outcome != "" {
				out = " [" + c.Outcome + "]"
			}
			fmt.Fprintf(w, "  %s%s (%s) +%s %s%s\n",
				strings.Repeat("  ", c.Depth), c.Name, c.Proc, ns(c.StartNs), ns(c.DurNs), out)
		}
	}

	if rep.HasTimes {
		fmt.Fprintf(w, "\nper-process utilization (leaf-span busy time over trace wall)\n")
		for _, p := range rep.Procs {
			fmt.Fprintf(w, "  %-12s %5.1f%% busy %-12s |%s|\n", p.Proc, p.UtilPct, ns(p.BusyNs), p.Timeline)
		}
	}

	if len(rep.Leases.Outcomes) > 0 {
		fmt.Fprintf(w, "\nlease attribution\n  outcomes:")
		for _, o := range rep.Leases.Outcomes {
			fmt.Fprintf(w, " %s %d", o.Outcome, o.Count)
		}
		fmt.Fprintf(w, "\n")
		if len(rep.Leases.Reissues) > 0 {
			fmt.Fprintf(w, "  re-issued ranges (recovery from expiry/failure/death):\n")
			for _, l := range rep.Leases.Reissues {
				fmt.Fprintf(w, "    [%d,%d) attempt %d worker %d -> %s\n", l.Lo, l.Hi, l.Attempt, l.Worker, l.Outcome)
			}
		}
		if len(rep.Leases.Stragglers) > 0 {
			fmt.Fprintf(w, "  slowest leases (per row):\n")
			for _, l := range rep.Leases.Stragglers {
				fmt.Fprintf(w, "    [%d,%d) worker %d: %s for %d row(s) = %.3f ms/row [%s]\n",
					l.Lo, l.Hi, l.Worker, ns(l.DurNs), l.Hi-l.Lo, l.MsPerRow, l.Outcome)
			}
		}
	}

	if rep.Kernel.Batches > 0 {
		fmt.Fprintf(w, "\nkernel lane occupancy\n")
		fmt.Fprintf(w, "  %d batch(es), kernel time %s, lane-weighted %s, occupancy %.1f%%\n",
			rep.Kernel.Batches, ns(rep.Kernel.KernelNs), ns(rep.Kernel.WeightedNs), rep.Kernel.LanePct)
	}
}

// render produces the full output for one invocation.
func render(paths []string, asJSON bool) ([]byte, error) {
	tr, err := load(paths)
	if err != nil {
		return nil, err
	}
	rep := analyze(tr)
	var buf bytes.Buffer
	if asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	} else {
		writeText(&buf, rep)
	}
	return buf.Bytes(), nil
}

func main() {
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of text")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracer [-json] [-o file] span-journal.jsonl ...\n")
		fmt.Fprintf(os.Stderr, "give the coordinator's journal first so cross-process parents resolve.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	b, err := render(flag.Args(), *asJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracer: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tracer: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Stdout.Write(b)
}
