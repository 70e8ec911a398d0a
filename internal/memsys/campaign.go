package memsys

import (
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zones"
)

// warmupCycles lets the BIST sequence finish before the workload starts.
const warmupCycles = 24

// BuildTrace renders a memory-operation sequence into a full DUT-port
// trace: BIST warm-up idles first, then one operation every OpGap+1
// cycles, driving every primary input (including the MPU configuration
// pins, held inactive).
func (d *Design) BuildTrace(ops []workload.MemOp) *workload.Trace {
	ports := []string{"req", "we", "addr", "wdata", "priv"}
	if d.Cfg.MPU {
		ports = append(ports, "mpu_cfg", "cfg_we")
	}
	tr := workload.NewTrace(ports...)
	idle := map[string]uint64{"req": 0, "we": 0, "addr": 0, "wdata": 0, "priv": 1}
	if d.Cfg.MPU {
		idle["mpu_cfg"] = 0
		idle["cfg_we"] = 0
	}
	tr.Add(idle)
	tr.AddIdle(warmupCycles - 1)
	for _, op := range ops {
		m := map[string]uint64{"req": 1, "we": 0, "addr": op.Addr, "wdata": op.Data, "priv": 1}
		switch op.Kind {
		case workload.OpWrite:
			m["we"] = 1
		case workload.OpIdle:
			m["req"] = 0
		}
		tr.Add(m)
		tr.Add(map[string]uint64{"req": 0, "we": 0})
		tr.AddIdle(OpGap - 1)
	}
	tr.AddIdle(OpGap + 1)
	return tr
}

// ValidationWorkload is the Section 5 workload: a March X sweep over a
// slice of the address space followed by random traffic — enough to
// trigger every sensible zone (verified by the completeness check).
func (d *Design) ValidationWorkload(words int, seed uint64) *workload.Trace {
	if max := 1 << uint(d.Cfg.AddrWidth); words > max {
		words = 1 << uint(d.Cfg.AddrWidth)
	}
	ops := workload.MarchX(words, 0, d.Cfg.DataWidth)
	rng := xrand.New(seed)
	ops = append(ops, workload.RandomOps(rng, 3*words, words, d.Cfg.DataWidth, 0.5)...)
	tr := d.BuildTrace(ops)
	if d.Cfg.MPU {
		// Exercise the MPU: reprogram the page-permission register and
		// attempt an unprivileged access to a privileged page (the MPU
		// alarm fires in the golden run too — that is its job).
		privPage := uint64(7)
		for p := 0; p < 8; p++ {
			if d.Cfg.PrivPages>>uint(p)&1 == 1 {
				privPage = uint64(p)
			}
		}
		privAddr := privPage << uint(d.Cfg.AddrWidth-3)
		tr.Add(map[string]uint64{"cfg_we": 1, "mpu_cfg": d.Cfg.PrivPages ^ 0x01})
		tr.Add(map[string]uint64{"cfg_we": 0})
		tr.AddIdle(1)
		tr.Add(map[string]uint64{"req": 1, "we": 0, "addr": privAddr, "priv": 0})
		tr.Add(map[string]uint64{"req": 0, "priv": 1})
		tr.AddIdle(OpGap)
		tr.Add(map[string]uint64{"cfg_we": 1, "mpu_cfg": d.Cfg.PrivPages})
		tr.Add(map[string]uint64{"cfg_we": 0})
		tr.AddIdle(OpGap)
	}
	return tr
}

// InjectionTargetSeeded wires the design into the fault-injection
// environment: each instance is a fresh simulator with a fresh memory
// array attached, with array faults pre-armed in every instance (golden
// and faulty alike). The workload-coverage runs seed known cell defects
// so the whole detection/correction datapath is exercised by the
// fault-free reference too; nil seeds arm none.
func (d *Design) InjectionTargetSeeded(a *zones.Analysis, seeds []ArrayFault) *inject.Target {
	return &inject.Target{
		Analysis: a,
		NewInstance: func() (*sim.Simulator, error) {
			s, arr, err := d.NewSimulator()
			if err != nil {
				return nil, err
			}
			for _, f := range seeds {
				if err := arr.Inject(f); err != nil {
					return nil, err
				}
			}
			return s, nil
		},
	}
}

// SeedFaults returns the standard coverage seeds: one stuck-at-0 cell
// per data bit and per check bit (each at its own address, so every
// syndrome column and correction matcher is exercised), one double
// error, a defective BIST target cell, and — when the address space
// allows — one wrong-addressing pair per address bit so every folded
// address column of the code is driven. Requires at least
// WordWidth+2 words; the addressing pairs need WordWidth+2+2·AddrWidth.
func (d *Design) SeedFaults() []ArrayFault {
	var seeds []ArrayFault
	ww := d.WordWidth()
	for bit := 0; bit < ww; bit++ {
		seeds = append(seeds, ArrayFault{Kind: CellSA, A: uint64(bit + 1), Bit: bit, Val: 0})
	}
	dbl := uint64(ww + 1)
	seeds = append(seeds,
		ArrayFault{Kind: CellSA, A: dbl, Bit: 0, Val: 0},
		ArrayFault{Kind: CellSA, A: dbl, Bit: 1, Val: 0},
		ArrayFault{Kind: CellSA, A: 0, Bit: 2, Val: 0}, // fails the BIST
	)
	for _, p := range d.addrPairs() {
		seeds = append(seeds, ArrayFault{Kind: WrongAddressing, A: p[0], B: p[1]})
	}
	return seeds
}

// addrPairs allocates one (A, A^2^k) wrong-addressing pair per address
// bit in the space above the cell seeds, greedily avoiding collisions;
// bits that don't fit are skipped.
func (d *Design) addrPairs() [][2]uint64 {
	words := uint64(1) << uint(d.Cfg.AddrWidth)
	used := map[uint64]bool{}
	for w := uint64(0); w <= uint64(d.WordWidth()+1); w++ {
		used[w] = true // cell seeds, double-error word, BIST word
	}
	var out [][2]uint64
	for k := 0; k < d.Cfg.AddrWidth; k++ {
		for a := uint64(d.WordWidth() + 2); a < words; a++ {
			b := a ^ 1<<uint(k)
			if b >= words || used[a] || used[b] {
				continue
			}
			used[a] = true
			used[b] = true
			out = append(out, [2]uint64{a, b})
			break
		}
	}
	return out
}

// CoverageWorkload extends the validation workload with the stimuli the
// Section 5b toggle measurement needs: writes of all-ones over the
// seeded defective cells followed by read-back (driving every syndrome
// column, the correction matchers and the alarm tree), plus MPU
// configuration sweeps.
func (d *Design) CoverageWorkload(seed uint64) *workload.Trace {
	ww := d.WordWidth()
	dw := d.Cfg.DataWidth
	ones := uint64(1)<<uint(dw) - 1
	var ops []workload.MemOp
	for bit := 0; bit <= ww+1; bit++ {
		a := uint64(bit)
		ops = append(ops,
			workload.MemOp{Kind: workload.OpWrite, Addr: a, Data: ones},
			workload.MemOp{Kind: workload.OpRead, Addr: a, Data: 0},
			workload.MemOp{Kind: workload.OpWrite, Addr: a, Data: 0},
			workload.MemOp{Kind: workload.OpRead, Addr: a, Data: 0},
		)
		// A stuck check bit only shows when the stored check bit should
		// be 1: write a pattern that sets it for this address.
		if j := bit - dw; j >= 0 && j < d.Codec.CheckWidth {
			pat := d.checkActivation(j, a)
			ops = append(ops,
				workload.MemOp{Kind: workload.OpWrite, Addr: a, Data: pat},
				workload.MemOp{Kind: workload.OpRead, Addr: a, Data: 0},
			)
		}
	}
	// Touch every MPU page so the page decode logic toggles.
	for p := uint64(0); p < 8; p++ {
		ops = append(ops, workload.MemOp{Kind: workload.OpRead, Addr: p << uint(d.Cfg.AddrWidth-3), Data: 0})
	}
	// Exercise each folded address column via the wrong-addressing pairs.
	for _, pr := range d.addrPairs() {
		ops = append(ops,
			workload.MemOp{Kind: workload.OpWrite, Addr: pr[1], Data: 0x1234},
			workload.MemOp{Kind: workload.OpRead, Addr: pr[0], Data: 0},
			workload.MemOp{Kind: workload.OpRead, Addr: pr[1], Data: 0},
		)
	}
	// Leave fresh single errors for the scrubber to find, bit by bit
	// (check-bit cells need their activation pattern to be visible).
	for bit := 0; bit < ww; bit++ {
		data := ones
		if j := bit - dw; j >= 0 {
			data = d.checkActivation(j, uint64(bit+1))
		}
		ops = append(ops, workload.MemOp{Kind: workload.OpWrite, Addr: uint64(bit + 1), Data: data})
	}
	tr := d.ValidationWorkload(8, seed)
	tr.Concat(d.BuildTrace(ops))
	// Idle long enough for a full scrub sweep (4 cycles per word).
	tr.AddIdle(4<<uint(d.Cfg.AddrWidth) + 16)
	if d.Cfg.MPU {
		for _, pattern := range []uint64{0xFF, 0x00, d.Cfg.PrivPages} {
			tr.Add(map[string]uint64{"cfg_we": 1, "mpu_cfg": pattern})
			tr.Add(map[string]uint64{"cfg_we": 0})
			// Probe every page under this permission pattern, both
			// privileged and not, so each page-permission AND toggles.
			for p := uint64(0); p < 8; p++ {
				addr := p << uint(d.Cfg.AddrWidth-3)
				tr.Add(map[string]uint64{"req": 1, "we": 0, "addr": addr, "priv": 0})
				tr.Add(map[string]uint64{"req": 0, "priv": 1})
				tr.AddIdle(OpGap)
			}
		}
	}
	// Back-to-back writes exercise the buffer's enqueue-while-draining
	// path, and an immediate read afterwards exercises drain stalling.
	for i := 0; i < 3; i++ {
		tr.Add(map[string]uint64{"req": 1, "we": 1, "addr": uint64(2 + i), "wdata": ones})
	}
	tr.Add(map[string]uint64{"req": 1, "we": 0, "addr": 2, "wdata": 0})
	tr.Add(map[string]uint64{"req": 0, "we": 0})
	tr.AddIdle(2 * OpGap)
	return tr
}

// checkActivation picks a data pattern whose encoded check bit j is 1 at
// the given address, so a stuck check-bit cell becomes observable.
func (d *Design) checkActivation(j int, addr uint64) uint64 {
	candidates := []uint64{0, 1<<uint(d.Cfg.DataWidth) - 1}
	for i := 0; i < d.Cfg.DataWidth; i++ {
		candidates = append(candidates, 1<<uint(i))
	}
	for _, cand := range candidates {
		if d.Codec.Encode(cand, addr)>>uint(j)&1 == 1 {
			return cand
		}
	}
	return 0
}
