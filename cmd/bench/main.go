// Command bench is the repository's performance ledger: five workloads
// that drive the assessment flow, the campaign engines, the daemon and
// the lease fleet from outside through public functions, report
// end-to-end metrics from untraced runs and per-layer metrics from
// separate traced runs, and fail any op whose report bytes differ from
// the pinned SHA-256. See README.md in this directory.
//
//	go run ./cmd/bench -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-json FILE]
//
// One invocation with a workload name is one run in one process; its
// last line of standard output is the result as one JSON object
// (BENCHMARK.json names the metrics). "-workload all" starts one fresh
// process per workload so set-up time and peak memory stay
// attributable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// workloads lists the five workloads in ledger order.
var workloads = []struct {
	name string
	run  func(*runCtx) error
}{
	{"certify_default", func(c *runCtx) error { return runCampaign(c, c.sz.Certify, microScalar) }},
	{"campaign_lanes", func(c *runCtx) error { return runCampaign(c, c.sz.Lanes, microLanes) }},
	{"campaign_longtrace", func(c *runCtx) error { return runCampaign(c, c.sz.LongTrace, microLong) }},
	{"served_mix", runServed},
	{"fleet_2w", runFleet},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	jsonPath string
}

func (o options) sizing() *sizing {
	if o.smoke {
		return &smokeSizing
	}
	return &fullSizing
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: certify_default, campaign_lanes, campaign_longtrace, served_mix, fleet_2w or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed section; ops stop once it is spent")
	trace := fs.String("trace", "0", "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizing for tests: every code path, no meaningful numbers")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full result (host metadata, every metric with quartiles, spans) to this file")
	update := fs.Bool("update-digests", false, "recompute every pinned report digest and rewrite "+digestsPath)
	oracle := fs.Bool("verify-oracle", false, "prove on a reduced plan that the lanes, collapse and fleet reports equal the scalar serial engine's")
	calibrate := fs.Int("calibrate", 0, "run each workload this many times (at least 2), each on its own seed, and print the spread of every end-to-end metric against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *trace {
	case "0":
	case "1":
		o.trace = true
	default:
		fmt.Fprintf(stderr, "bench: -trace wants 0 or 1, got %q\n", *trace)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	var err error
	switch {
	case *update:
		err = updateDigests(stdout)
	case *oracle:
		err = verifyOracle(stdout)
	case *calibrate == 1 || *calibrate < 0:
		fmt.Fprintln(stderr, "bench: -calibrate wants at least 2 runs")
		return 2
	case *calibrate > 0:
		err = runCalibrate(o, *calibrate, stdout, stderr)
	case o.workload == "all":
		err = runAll(o, stdout, stderr)
	default:
		return runOne(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runOne is one run of one workload in this process.
func runOne(o options, stdout, stderr io.Writer) int {
	var body func(*runCtx) error
	for _, w := range workloads {
		if w.name == o.workload {
			body = w.run
		}
	}
	if body == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	res := &result{Workload: o.workload, Seed: o.seed, Traced: o.trace, Sizing: o.sizing().Name, DigestPinned: true}
	c := &runCtx{sz: o.sizing(), seed: o.seed, seconds: o.seconds, pins: p, res: res}
	if o.trace {
		c.tr = newTracer()
	}
	if err := body(c); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	res.add("fail_frac", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), nil)
	res.add("peak_rss_mb", "MB", peakRSSMB(), nil)
	if c.tr != nil {
		res.Spans = c.tr.spans
	}
	res.printTable(stdout)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, []*result{res}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, res.contractLine())
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// child re-executes this binary for one workload and returns its full
// result (read back from a -json file).
func child(o options, workload string, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "bench-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", fnum(o.seconds), "-json", tmp.Name()}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return doc.Results[0], nil
}

// runAll runs every workload, each in a fresh process.
func runAll(o options, stdout, stderr io.Writer) error {
	var all []*result
	var failed []string
	for _, w := range workloads {
		res, err := child(o, w.name, stdout, stderr)
		if err != nil {
			failed = append(failed, w.name)
			fmt.Fprintf(stderr, "bench: %v\n", err)
			continue
		}
		all = append(all, res)
		fmt.Fprintln(stdout)
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// document is the -json file: host metadata and one result per
// workload run. encoding/json writes struct fields in declaration order
// and every float in one shortest-round-trip format, so equal results
// give equal bytes.
type document struct {
	Host    host      `json:"host"`
	Results []*result `json:"results"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", // a checkout without .git has no revision to stamp
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func writeJSON(path string, results []*result) error {
	data, err := json.MarshalIndent(document{Host: hostInfo(), Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
