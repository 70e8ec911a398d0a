package faults

import (
	"repro/internal/netlist"
)

// Universe is an ordered fault list with bookkeeping for equivalence
// collapsing: Reps holds one representative per equivalence class and
// ClassSize[i] the number of universe faults the i-th representative
// stands for.
type Universe struct {
	All       []Fault
	Reps      []Fault
	ClassSize []int
}

// StuckAtUniverse enumerates the classic single-stuck-at universe over a
// netlist: SA0/SA1 on every gate output net, primary input net and FF
// output net, plus SA0/SA1 on every gate input pin. Pin faults are what
// distinguish fanout branches.
func StuckAtUniverse(n *netlist.Netlist) *Universe {
	u := &Universe{}
	add := func(f Fault) { u.All = append(u.All, f) }
	for i := range n.Gates {
		g := &n.Gates[i]
		add(NetSA(g.Output, false))
		add(NetSA(g.Output, true))
		for pin := range g.Inputs {
			add(PinSA(g.ID, pin, false))
			add(PinSA(g.ID, pin, true))
		}
	}
	for _, p := range n.Inputs {
		for _, id := range p.Nets {
			add(NetSA(id, false))
			add(NetSA(id, true))
		}
	}
	for i := range n.FFs {
		add(NetSA(n.FFs[i].Q, false))
		add(NetSA(n.FFs[i].Q, true))
	}
	u.collapse(n)
	return u
}

// collapse applies standard structural equivalence rules:
//
//   - AND/NAND: SA0 on any input pin ≡ SA0 (SA1 for NAND) on the output;
//   - OR/NOR:   SA1 on any input pin ≡ SA1 (SA0 for NOR) on the output;
//   - BUF:      input pin faults ≡ same-polarity output faults;
//   - NOT:      input pin faults ≡ inverted-polarity output faults;
//   - a fanout-free gate input pin fault ≡ the same fault on the driving
//     net (the branch is the stem).
//
// Representatives are chosen as the fault closest to the output so the
// collapsed list is dominated by net faults.
func (u *Universe) collapse(n *netlist.Netlist) {
	fan := n.FanoutCounts()
	// Union-find over fault indices.
	parent := make([]int, len(u.All))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Keep the smaller index as root for determinism.
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	// Index lookup tables.
	netSA := map[[2]int64]int{} // (net, v) -> fault idx
	pinSA := map[[3]int64]int{} // (gate, pin, v) -> fault idx
	for i, f := range u.All {
		switch f.Site {
		case SiteNet:
			v := int64(0)
			if f.Kind == SA1 {
				v = 1
			}
			netSA[[2]int64{int64(f.Net), v}] = i
		case SitePin:
			v := int64(0)
			if f.Kind == SA1 {
				v = 1
			}
			pinSA[[3]int64{int64(f.Gate), int64(f.Pin), v}] = i
		}
	}
	lookupNet := func(net netlist.NetID, v int64) (int, bool) {
		i, ok := netSA[[2]int64{int64(net), v}]
		return i, ok
	}
	lookupPin := func(g netlist.GateID, pin int, v int64) (int, bool) {
		i, ok := pinSA[[3]int64{int64(g), int64(pin), v}]
		return i, ok
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		outSA0, ok0 := lookupNet(g.Output, 0)
		outSA1, ok1 := lookupNet(g.Output, 1)
		if !ok0 || !ok1 {
			continue
		}
		for pin, in := range g.Inputs {
			p0, okp0 := lookupPin(g.ID, pin, 0)
			p1, okp1 := lookupPin(g.ID, pin, 1)
			if !okp0 || !okp1 {
				continue
			}
			// Controlling-value equivalence.
			switch g.Type {
			case netlist.AND:
				union(p0, outSA0)
			case netlist.NAND:
				union(p0, outSA1)
			case netlist.OR:
				union(p1, outSA1)
			case netlist.NOR:
				union(p1, outSA0)
			case netlist.BUF:
				union(p0, outSA0)
				union(p1, outSA1)
			case netlist.NOT:
				union(p0, outSA1)
				union(p1, outSA0)
			}
			// Fanout-free branch ≡ stem.
			if fan[in] == 1 {
				if s0, ok := lookupNet(in, 0); ok {
					union(p0, s0)
				}
				if s1, ok := lookupNet(in, 1); ok {
					union(p1, s1)
				}
			}
		}
	}
	// Gather representatives deterministically.
	classOf := map[int]int{} // root -> rep slot
	for i := range u.All {
		r := find(i)
		if slot, ok := classOf[r]; ok {
			u.ClassSize[slot]++
			continue
		}
		classOf[r] = len(u.Reps)
		// Prefer a net fault as the class representative when available:
		// the root is the smallest index, which enumerates output net
		// faults before pin faults for each gate, so roots already favor
		// net sites.
		u.Reps = append(u.Reps, u.All[r])
		u.ClassSize = append(u.ClassSize, 1)
	}
}

// CollapseRatio is len(All)/len(Reps); classic designs land near 1.5–2.5.
func (u *Universe) CollapseRatio() float64 {
	if len(u.Reps) == 0 {
		return 0
	}
	return float64(len(u.All)) / float64(len(u.Reps))
}
