// Command zones runs the sensible-zone extraction tool over a catalogue
// design (internal/designs) and dumps the zones, their logic-cone
// statistics, and the strongest inter-zone correlations (shared cone
// gates — wide-fault exposure).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/designs"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zones: ")
	design := flag.String("design", "v2", "design: "+designs.Vocabulary(false))
	addrWidth := flag.Int("addr", 8, "address width (memory words = 2^addr)")
	topCorr := flag.Int("corr", 10, "number of correlations to list")
	flag.Parse()

	d, err := designs.Build(*design, *addrWidth, designs.DefaultWords, designs.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.N.String())
	fmt.Println(a.Summary())
	fmt.Println()

	t := report.NewTable("Sensible zones", "id", "kind", "zone", "FFs", "cone gates", "depth", "main effects", "secondary")
	for zi := range a.Zones {
		z := &a.Zones[zi]
		t.AddRow(z.ID, z.Kind.String(), z.Name, len(z.FFs),
			a.Cones[zi].GateCount(), a.Cones[zi].Depth,
			len(a.MainEffects(zi)), len(a.SecondaryEffects(zi)))
	}
	fmt.Println(t.Render())

	corrs := a.Correlations(1)
	ct := report.NewTable("Strongest zone correlations (shared cone gates)", "zone A", "zone B", "shared")
	for i, c := range corrs {
		if i >= *topCorr {
			break
		}
		ct.AddRow(a.Zones[c.A].Name, a.Zones[c.B].Name, c.Shared)
	}
	fmt.Println(ct.Render())
}
