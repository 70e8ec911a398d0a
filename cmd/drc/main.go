// Command drc runs the static design-rule-check engine over a design's
// (netlist, zones, worksheet) triple without simulating a cycle: the
// pre-flight gate the certification flow requires before any injection
// campaign spends cycles on an inconsistent design.
//
// Output is an aligned text report or stable JSON (-json). The exit
// code is the CI contract, documented in --help:
//
//	0  the design is clean at the -severity threshold
//	1  at least one finding at or above the threshold
//	2  usage error, unknown design, or a build/check failure
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/designs"
	"repro/internal/drc"
	"repro/internal/fit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: drc [flags]")
		fmt.Fprintln(stderr, "\nStatic design-rule check over a design's (netlist, zones, worksheet) triple.")
		fmt.Fprintln(stderr, "\nExit codes:")
		fmt.Fprintln(stderr, "  0  clean: no finding at or above the -severity threshold")
		fmt.Fprintln(stderr, "  1  at least one finding at or above the -severity threshold")
		fmt.Fprintln(stderr, "  2  usage error, unknown design, or build/check failure")
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	design := fs.String("design", "v2", "design: "+designs.Vocabulary(false))
	addrWidth := fs.Int("addr", 8, "address width for the memory sub-system designs")
	seed := fs.Uint64("seed", 1, "seed for -design rand")
	jsonOut := fs.Bool("json", false, "emit stable JSON instead of text")
	sevFlag := fs.String("severity", "error", "exit non-zero at or above this severity (info, warn, error)")
	rulesFlag := fs.String("rules", "", "comma-separated rule IDs to run (default all)")
	skipFlag := fs.String("skip", "", "comma-separated rule IDs to skip")
	corr := fs.Float64("corr", 0, "zone-correlation Jaccard threshold (0 = default)")
	fitTol := fs.Float64("fit-tol", 0, "FIT conservation relative tolerance (0 = default)")
	noWorksheet := fs.Bool("no-worksheet", false, "check only the netlist and zone layers")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0 // asking for the manual is not a usage error
		}
		return 2
	}

	threshold, err := drc.ParseSeverity(*sevFlag)
	if err != nil {
		fmt.Fprintf(stderr, "drc: %v\n", err)
		return 2
	}
	cfg := drc.DefaultConfig()
	if *corr > 0 {
		cfg.CorrelationJaccard = *corr
	}
	if *fitTol > 0 {
		cfg.FITTolerance = *fitTol
	}
	cfg.Rules = splitList(*rulesFlag)
	cfg.Skip = splitList(*skipFlag)

	in, err := buildInput(*design, *addrWidth, *seed, !*noWorksheet)
	if err != nil {
		fmt.Fprintf(stderr, "drc: %v\n", err)
		return 2
	}
	res, err := drc.Run(in, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "drc: %v\n", err)
		return 2
	}
	if *jsonOut {
		out, err := res.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "drc: %v\n", err)
			return 2
		}
		stdout.Write(out)
	} else {
		io.WriteString(stdout, res.Render())
	}
	if res.CountAtLeast(threshold) > 0 {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildInput assembles the check triple for a catalogue design. A
// design without a DUT (rand) exercises the netlist and zone layers
// only: random circuits carry no curated worksheet.
func buildInput(design string, addrWidth int, seed uint64, withWorksheet bool) (drc.Input, error) {
	d, err := designs.Build(design, addrWidth, designs.DefaultWords, seed)
	if err != nil {
		return drc.Input{}, err
	}
	a, err := d.Analyze()
	if err != nil {
		return drc.Input{}, err
	}
	rates := fit.Default()
	in := drc.Input{Netlist: d.N, Analysis: a, Rates: &rates}
	if withWorksheet && d.DUT != nil {
		in.Worksheet = d.DUT.Worksheet(a, rates)
	}
	return in, nil
}
