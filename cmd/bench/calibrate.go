package main

import (
	"fmt"
	"io"
)

// runCalibrate measures run-to-run noise: every workload runs
// o.runs times untraced, each run in a fresh process and on its own
// seed (as the driver does), and every end-to-end metric's spread —
// the distance between the quartiles of its values as a share of their
// median — is printed against its bound. A bound holds when it is at
// least three times the spread; the bounds in BENCHMARK.json were set
// from this output.
func runCalibrate(o options, runs int, stdout, stderr io.Writer) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	o.trace = false
	type line struct {
		workload string
		def      metricDef
		values   []float64
	}
	var lines []line
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			ro := o
			ro.seed = o.seed + uint64(i)
			res, err := child(ro, name, io.Discard, stderr)
			if err != nil {
				return err
			}
			for _, d := range endToEnd {
				m, _ := res.lookup(d.Name)
				values[d.Name] = append(values[d.Name], m.Value)
			}
			fmt.Fprintf(stderr, "calibrate: %s run %d/%d done\n", name, i+1, runs)
		}
		for _, d := range endToEnd {
			lines = append(lines, line{name, d, values[d.Name]})
		}
	}
	fmt.Fprintf(stdout, "%-20s %-16s %12s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	wide := 0
	for _, l := range lines {
		sp := spread(l.values)
		verdict := "ok"
		switch {
		case l.def.Name == "setup_s":
			verdict = "ok (spread of setup_s is not gated)"
		case sp > l.def.Bound:
			verdict = "TOO NOISY: demote or lengthen the run"
			wide++
		case 3*sp > l.def.Bound:
			verdict = "widen: bound is under 3x the spread"
			wide++
		}
		fmt.Fprintf(stdout, "%-20s %-16s %12.6g %8.2f%% %6.0f%%  %s\n",
			l.workload, l.def.Name, median(l.values), 100*sp, 100*l.def.Bound, verdict)
		fmt.Fprintf(stdout, "%-20s   values: %.5g\n", "", l.values)
	}
	if wide > 0 {
		return fmt.Errorf("calibrate: %d metric(s) need a wider bound", wide)
	}
	return nil
}
