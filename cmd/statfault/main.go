// Command statfault dumps the static fault-analysis report for a named
// design: the campaign-exact equivalence classes of stuck-at atoms,
// the classic dominance edges, the nets proven constant (whose matching
// stuck-ats are untestable), the nets from which no monitor is
// reachable (whose faults are unobservable) and the forward-cone sizes
// of the class representatives. This is the audit artifact behind the
// -collapse campaign pre-pass: everything the pre-pass prunes or folds
// is enumerable here, without simulating a cycle.
//
// Output is an aligned text summary or stable JSON (-json); both are
// byte-identical across runs of the same design. Exit codes: 0 success,
// 2 usage or build errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/statfault"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statfault", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := fs.String("design", "v2", "design: "+designs.Vocabulary(false))
	addrWidth := fs.Int("addr", 8, "address width for the memory sub-system designs")
	seed := fs.Uint64("seed", 1, "seed for -design rand")
	jsonOut := fs.Bool("json", false, "emit stable JSON instead of text")
	maxList := fs.Int("max-list", 50, "cap on listed classes, dominance edges and untestable atoms")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *maxList < 0 {
		fmt.Fprintln(stderr, "statfault: -max-list must be >= 0")
		return 2
	}
	rep, err := buildReport(*design, *addrWidth, *seed, *maxList)
	if err != nil {
		fmt.Fprintf(stderr, "statfault: %v\n", err)
		return 2
	}
	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "statfault: %v\n", err)
			return 2
		}
		stdout.Write(out)
		io.WriteString(stdout, "\n")
	} else {
		renderText(stdout, rep)
	}
	return 0
}

// classInfo is one non-singleton equivalence class in the report: the
// representative atom, every member, and the representative's forward
// cone-of-influence size (its scheduling weight).
type classInfo struct {
	Rep      string   `json:"rep"`
	Members  []string `json:"members"`
	ConeNets int      `json:"cone_nets"`
}

// reportData is the full audit report. Field order is the JSON order;
// all content is derived deterministically from the netlist, so the
// serialized report is byte-stable across runs.
type reportData struct {
	Design           string      `json:"design"`
	Nets             int         `json:"nets"`
	Gates            int         `json:"gates"`
	FFs              int         `json:"ffs"`
	Zones            int         `json:"zones"`
	Atoms            int         `json:"atoms"`
	Classes          int         `json:"classes"`
	CollapsedAtoms   int         `json:"collapsed_atoms"`
	ConstNets        int         `json:"const_nets"`
	UntestableAtoms  int         `json:"untestable_atoms"`
	UnobservableNets int         `json:"unobservable_nets"`
	DominanceEdges   int         `json:"dominance_edges"`
	ClassList        []classInfo `json:"class_list,omitempty"`
	Untestable       []string    `json:"untestable,omitempty"`
	Dominance        []string    `json:"dominance,omitempty"`
}

func buildReport(design string, addrWidth int, seed uint64, maxList int) (*reportData, error) {
	d, err := designs.Build(design, addrWidth, designs.DefaultWords, seed)
	if err != nil {
		return nil, err
	}
	a, err := d.Analyze()
	if err != nil {
		return nil, err
	}
	sf, err := statfault.New(a)
	if err != nil {
		return nil, err
	}
	n := sf.Netlist()
	atomName := func(at statfault.Atom) string {
		id, v := at.Net()
		p := "0"
		if v {
			p = "1"
		}
		return n.NetName(id) + "/SA" + p
	}
	rep := &reportData{
		Design: design,
		Nets:   len(n.Nets),
		Gates:  len(n.Gates),
		FFs:    len(n.FFs),
		Zones:  len(a.Zones),
		Atoms:  2 * len(n.Nets),
	}
	classes := sf.Classes()
	rep.Classes = len(classes)
	for _, c := range classes {
		rep.CollapsedAtoms += len(c.Members) - 1
	}
	for i, c := range classes {
		if i >= maxList {
			break
		}
		ci := classInfo{Rep: atomName(c.Rep), ConeNets: sf.ConeNets(netOf(c.Rep))}
		for _, m := range c.Members {
			ci.Members = append(ci.Members, atomName(m))
		}
		rep.ClassList = append(rep.ClassList, ci)
	}
	for id := range n.Nets {
		net := netlist.NetID(id)
		if v, ok := sf.ConstNet(net); ok {
			rep.ConstNets++
			rep.UntestableAtoms++
			if len(rep.Untestable) < maxList {
				rep.Untestable = append(rep.Untestable, atomName(statfault.AtomOf(net, v)))
			}
		}
		if !sf.ReachesObs(net) {
			reachesZone := false
			for z := range a.Zones {
				if sf.ReachesZoneEffect(net, z) {
					reachesZone = true
					break
				}
			}
			if !reachesZone {
				rep.UnobservableNets++
			}
		}
	}
	dom := sf.Dominance()
	rep.DominanceEdges = len(dom)
	for i, e := range dom {
		if i >= maxList {
			break
		}
		rep.Dominance = append(rep.Dominance, atomName(e.Dominated)+" dom-by "+atomName(e.Dominator))
	}
	return rep, nil
}

func netOf(at statfault.Atom) netlist.NetID {
	id, _ := at.Net()
	return id
}

func renderText(w io.Writer, r *reportData) {
	fmt.Fprintf(w, "%s: %d nets, %d gates, %d FFs, %d zones\n", r.Design, r.Nets, r.Gates, r.FFs, r.Zones)
	fmt.Fprintf(w, "stuck-at atoms: %d; equivalence classes: %d (%d atoms fold onto a representative)\n",
		r.Atoms, r.Classes, r.CollapsedAtoms)
	fmt.Fprintf(w, "constant nets: %d (%d untestable stuck-at atoms)\n", r.ConstNets, r.UntestableAtoms)
	fmt.Fprintf(w, "monitor-unreachable nets: %d\n", r.UnobservableNets)
	fmt.Fprintf(w, "dominance edges: %d\n", r.DominanceEdges)
	for _, c := range r.ClassList {
		fmt.Fprintf(w, "  class %-24s cone %-5d members %v\n", c.Rep, c.ConeNets, c.Members)
	}
	for _, u := range r.Untestable {
		fmt.Fprintf(w, "  untestable %s\n", u)
	}
	for _, d := range r.Dominance {
		fmt.Fprintf(w, "  %s\n", d)
	}
}
