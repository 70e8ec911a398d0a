// Command netlist exports a catalogue design (internal/designs; or a
// memory design's standalone codec testbench) as structural Verilog, or
// re-imports such a file and reports its zone-extraction summary — the
// interchange path for netlists coming from an external synthesis flow.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/designs"
	"repro/internal/memsys"
	"repro/internal/netlist"
	"repro/internal/zones"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netlist: ")
	design := flag.String("design", "v2", "design: "+designs.Vocabulary(false))
	codec := flag.Bool("codec", false, "export the standalone codec testbench instead of the full DUT (memory designs only)")
	out := flag.String("o", "", "write Verilog to this file (default stdout)")
	parse := flag.String("parse", "", "parse a structural Verilog file and summarize it")
	flag.Parse()

	if *parse != "" {
		f, err := os.Open(*parse)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		n, err := netlist.ParseVerilog(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(n.String())
		a, err := zones.Extract(n, zones.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(a.Summary())
		return
	}

	d, err := designs.Build(*design, designs.DefaultAddr, designs.DefaultWords, designs.DefaultSeed)
	if err != nil {
		log.Fatal(err)
	}
	n := d.N
	if *codec {
		mem, ok := d.DUT.(*memsys.FlowDUT)
		if !ok {
			log.Fatalf("-codec: design %q has no memory codec", *design)
		}
		if n, err = memsys.BuildCodecBench(mem.D.Cfg); err != nil {
			log.Fatal(err)
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := n.WriteVerilog(w); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *out, n.String())
	}
}
