// Command fmea runs the SoC-level FMEA over a catalogue design
// (internal/designs): zone extraction, worksheet computation, IEC 61508
// metrics (DC, SFF, claimable SIL), the per-zone criticality ranking,
// the sensitivity spans, and an optional CSV export of the full sheet.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/designs"
	"repro/internal/fit"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fmea: ")
	design := flag.String("design", "v2", "design: "+designs.Vocabulary(true))
	addrWidth := flag.Int("addr", 8, "address width")
	csvPath := flag.String("csv", "", "export the worksheet to this CSV file")
	top := flag.Int("top", 12, "ranking entries to print")
	span := flag.Float64("span", 2, "sensitivity span factor")
	flag.Parse()

	d, err := designs.BuildDUT(*design, *addrWidth, designs.DefaultWords, designs.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	a, err := d.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	w := d.Worksheet(a, fit.Default())
	m := w.Totals()

	fmt.Println(a.Summary())
	t := report.NewTable("\nIEC 61508 metrics",
		"λS [FIT]", "λD [FIT]", "λDD [FIT]", "λDU [FIT]", "DC", "SFF", "SIL@HFT0", "SIL@HFT1")
	t.AddRow(m.LambdaS, m.LambdaD, m.LambdaDD, m.LambdaDU,
		m.DC(), m.SFF(), w.SIL(0).String(), w.SIL(1).String())
	fmt.Println(t.Render())

	rt := report.NewTable("Criticality ranking (by undetected dangerous rate)",
		"#", "zone", "λDU [FIT]", "share", "SFF(zone)")
	for i, zr := range w.Ranking() {
		if i >= *top {
			break
		}
		rt.AddRow(i+1, zr.ZoneName, zr.Metrics.LambdaDU, report.Pct(zr.ShareDU), zr.Metrics.SFF())
	}
	fmt.Println(rt.Render())

	sens := w.SpanAssumptions(*span)
	st := report.NewTable("Sensitivity spans", "case", "SFF")
	st.AddRow("baseline", sens.BaseSFF)
	for _, c := range sens.Cases {
		st.AddRow(c.Name, c.SFF)
	}
	fmt.Println(st.Render())
	fmt.Printf("SFF spread across spans: %.4f\n", sens.Spread())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := w.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("worksheet exported to %s (%d rows)\n", *csvPath, len(w.Rows))
	}
}
