// Command certify runs the complete assessment flow over both memory
// sub-system implementations (or one of them) and prints the
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
	"repro/internal/drc"
	"repro/internal/frcpu"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/memsys"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("certify: ")
	design := flag.String("design", "both", "implementation: v1, v2, both, cpu or cpu-lockstep")
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

	var duts []core.DUT
	memDUT := func(cfg memsys.Config) core.DUT {
		cfg.AddrWidth = *addrWidth
		d, err := memsys.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return memsys.NewFlowDUT(d)
	}
	cpuDUT := func(cfg frcpu.Config) core.DUT {
		d, err := frcpu.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return frcpu.NewFlowDUT(d)
	}
	switch *design {
	case "v1":
		duts = []core.DUT{memDUT(memsys.V1Config())}
	case "v2":
		duts = []core.DUT{memDUT(memsys.V2Config())}
	case "both":
		duts = []core.DUT{memDUT(memsys.V1Config()), memDUT(memsys.V2Config())}
	case "cpu":
		duts = []core.DUT{cpuDUT(frcpu.PlainConfig())}
	case "cpu-lockstep":
		duts = []core.DUT{cpuDUT(frcpu.LockstepConfig())}
	default:
		log.Fatalf("unknown design %q", *design)
	}

	// The DRC pre-flight is mandatory: a report that grades SIL over a
	// netlist with error-level findings says so in the report body, and
	// the command refuses the certification exit code.
	allMet := true
	for _, dut := range duts {
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
