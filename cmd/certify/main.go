// Command certify runs the complete assessment flow over both memory
// sub-system implementations (or any one design of the catalogue,
// internal/designs) and prints the
// certification-style report: metrics, SIL grading against the target,
// sensitivity spans and the full fault-injection validation verdicts.
// The exit code is non-zero when the target SIL is not met.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/drc"
	"repro/internal/iec61508"
	"repro/internal/inject"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("certify: ")
	design := flag.String("design", "both", "design: "+designs.Vocabulary(true)+"; both = v1 then v2")
	addrWidth := flag.Int("addr", 8, "address width for metrics (validation always runs at this size)")
	target := flag.Int("target", 3, "target SIL (1-4)")
	hft := flag.Int("hft", 0, "hardware fault tolerance")
	validate := flag.Bool("validate", false, "run the full fault-injection validation")
	srs := flag.Bool("srs", false, "also print the Safety Requirements Specification extract")
	transient := flag.Int("transient", 1, "transient experiments per zone")
	permanent := flag.Int("permanent", 1, "permanent experiments per zone")
	flag.Parse()

	opts := core.DefaultOptions()
	opts.TargetSIL = iec61508.SIL(*target)
	opts.HFT = *hft
	opts.RunValidation = *validate
	opts.Plan = inject.PlanConfig{TransientPerZone: *transient, PermanentPerZone: *permanent, Seed: 1}

	names := []string{*design}
	if *design == "both" {
		names = []string{"v1", "v2"}
	}

	// The DRC pre-flight is mandatory: a report that grades SIL over a
	// netlist with error-level findings says so in the report body, and
	// the command refuses the certification exit code.
	allMet := true
	for _, name := range names {
		// The campaign workload is the flow default: certify has no
		// -words or -seed.
		dut, err := designs.BuildDUT(name, *addrWidth, designs.DefaultWords, designs.DefaultSeed)
		if err != nil {
			log.Fatal(err)
		}
		as, err := core.Run(dut, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(as.Report())
		if *srs {
			fmt.Println()
			fmt.Println(as.SRS())
		}
		fmt.Println()
		if !as.DRCClean() {
			log.Printf("%s: DRC pre-flight found %d error-level violation(s); grade is conditional",
				as.Name, as.DRC.Count(drc.Error))
		}
		if !as.CampaignHealthy() {
			log.Printf("%s: validation campaign degraded (%d quarantined, %d aborted); grade is conditional",
				as.Name, as.Validation.Quarantined, as.Validation.AbortedExps)
		}
		allMet = allMet && as.TargetMet && as.DRCClean() && as.CampaignHealthy()
	}
	if !allMet {
		os.Exit(1)
	}
}
