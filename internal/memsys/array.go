package memsys

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// ArrayFaultKind enumerates the IEC 61508 variable-memory fault models
// the paper's Section 2 lists for the array (modeled behaviorally, as in
// the referenced memory fault-model literature).
type ArrayFaultKind uint8

// Array fault models.
const (
	// CellSA forces one bit of one word to a constant (DC data fault).
	CellSA ArrayFaultKind = iota
	// SoftError flips one bit of one word once (change of information
	// caused by soft errors).
	SoftError
	// WrongAddressing redirects accesses of word A to word B (no/wrong
	// addressing: with B out of range the access is dropped).
	WrongAddressing
	// MultipleAddressing makes writes to word A also hit word B.
	MultipleAddressing
	// Coupling flips a bit of word B whenever word A is written
	// (dynamic cross-over between cells).
	Coupling
	// AddrLineSA forces one address line of the array port to a constant
	// (DC address fault).
	AddrLineSA
)

func (k ArrayFaultKind) String() string {
	switch k {
	case CellSA:
		return "cell stuck-at"
	case SoftError:
		return "soft error"
	case WrongAddressing:
		return "wrong addressing"
	case MultipleAddressing:
		return "multiple addressing"
	case Coupling:
		return "cell coupling"
	default:
		return "address line stuck-at"
	}
}

// ArrayFault is one armed array fault.
type ArrayFault struct {
	Kind ArrayFaultKind
	A    uint64 // primary word (or address line index for AddrLineSA)
	B    uint64 // partner word / stuck value
	Bit  int    // affected bit (CellSA, SoftError, Coupling)
	Val  uint64 // stuck value for CellSA (0/1) and AddrLineSA line value
}

// Array is the behavioral memory array peripheral: a synchronous
// single-port RAM of 2^addrWidth words × wordWidth bits with one-cycle
// read latency and the fault models above.
type Array struct {
	addrWidth int
	wordWidth int
	words     []uint64

	// port nets
	addr  []netlist.NetID
	wdata []netlist.NetID
	we    netlist.NetID
	re    netlist.NetID
	rdata []netlist.NetID

	faults []ArrayFault

	// sampled inputs
	sAddr  uint64
	sWData uint64
	sWE    bool
	sRE    bool
}

// NewArray creates the array and wires it to the given nets.
func NewArray(addrWidth, wordWidth int, addr, wdata []netlist.NetID, we, re netlist.NetID, rdata []netlist.NetID) *Array {
	if len(addr) != addrWidth || len(wdata) != wordWidth || len(rdata) != wordWidth {
		panic("memsys: array port width mismatch")
	}
	return &Array{
		addrWidth: addrWidth,
		wordWidth: wordWidth,
		words:     make([]uint64, 1<<uint(addrWidth)),
		addr:      addr, wdata: wdata, we: we, re: re, rdata: rdata,
	}
}

func (a *Array) mask() uint64 {
	if a.wordWidth >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(a.wordWidth) - 1
}

// Inject arms a fault. SoftError takes effect immediately (the upset
// happens now); persistent models stay armed for the array's lifetime.
func (a *Array) Inject(f ArrayFault) error {
	switch f.Kind {
	case SoftError:
		if f.Bit < 0 || f.Bit >= a.wordWidth {
			return fmt.Errorf("memsys: soft error bit %d out of range", f.Bit)
		}
		a.words[f.A&uint64(len(a.words)-1)] ^= 1 << uint(f.Bit)
		return nil
	case CellSA, Coupling:
		if f.Bit < 0 || f.Bit >= a.wordWidth {
			return fmt.Errorf("memsys: fault bit %d out of range", f.Bit)
		}
	case AddrLineSA:
		if f.A >= uint64(a.addrWidth) {
			return fmt.Errorf("memsys: address line %d out of range", f.A)
		}
	}
	a.faults = append(a.faults, f)
	a.applyCellSA()
	return nil
}

// applyCellSA forces stuck cells to their stuck value in storage.
func (a *Array) applyCellSA() {
	for _, f := range a.faults {
		if f.Kind != CellSA {
			continue
		}
		w := f.A & uint64(len(a.words)-1)
		if f.Val&1 == 1 {
			a.words[w] |= 1 << uint(f.Bit)
		} else {
			a.words[w] &^= 1 << uint(f.Bit)
		}
	}
}

// effAddr applies addressing faults to a requested address; drop
// reports a "no addressing" outcome.
func (a *Array) effAddr(req uint64) (eff uint64, drop bool) {
	eff = req & uint64(len(a.words)-1)
	for _, f := range a.faults {
		switch f.Kind {
		case AddrLineSA:
			if f.Val&1 == 1 {
				eff |= 1 << uint(f.A)
			} else {
				eff &^= 1 << uint(f.A)
			}
		case WrongAddressing:
			if eff == f.A&uint64(len(a.words)-1) {
				if f.B >= uint64(len(a.words)) {
					return 0, true
				}
				eff = f.B
			}
		}
	}
	return eff, false
}

// Sample implements sim.Peripheral.
func (a *Array) Sample(get func(netlist.NetID) sim.Value) {
	a.sAddr = busValue(get, a.addr)
	a.sWData = busValue(get, a.wdata)
	a.sWE = get(a.we) == sim.V1
	a.sRE = get(a.re) == sim.V1
}

// Commit implements sim.Peripheral: performs the sampled access and
// drives the read port for the next cycle.
func (a *Array) Commit(set func(netlist.NetID, sim.Value)) {
	if a.sWE {
		eff, drop := a.effAddr(a.sAddr)
		if !drop {
			a.words[eff] = a.sWData & a.mask()
			for _, f := range a.faults {
				switch f.Kind {
				case MultipleAddressing:
					if eff == f.A&uint64(len(a.words)-1) {
						a.words[f.B&uint64(len(a.words)-1)] = a.sWData & a.mask()
					}
				case Coupling:
					if eff == f.A&uint64(len(a.words)-1) {
						a.words[f.B&uint64(len(a.words)-1)] ^= 1 << uint(f.Bit)
					}
				}
			}
			a.applyCellSA()
		}
	}
	if a.sRE {
		eff, drop := a.effAddr(a.sAddr)
		var v uint64
		if !drop {
			v = a.words[eff]
		}
		for i, id := range a.rdata {
			set(id, sim.FromBool(v>>uint(i)&1 == 1))
		}
	}
}

// arrayState is the sim.Peripheral snapshot payload of an Array: the
// storage words and the sampled port registers.
// Armed faults are configuration, not state, and are not captured (a
// restored instance keeps its own armed fault models, matching the
// simulator's treatment of net/pin forces).
type arrayState struct {
	words         []uint64
	sAddr, sWData uint64
	sWE, sRE      bool
}

// SnapshotState implements sim.Peripheral: it returns a self-contained
// copy of the array state, safe to share read-only across goroutines.
func (a *Array) SnapshotState() any {
	st := &arrayState{
		words: make([]uint64, len(a.words)),
		sAddr: a.sAddr, sWData: a.sWData, sWE: a.sWE, sRE: a.sRE,
	}
	copy(st.words, a.words)
	return st
}

// RestoreState implements sim.Peripheral: it copies a captured state
// back into the array (never aliasing the snapshot, which other
// restores may be reading concurrently).
func (a *Array) RestoreState(state any) {
	st, ok := state.(*arrayState)
	if !ok || len(st.words) != len(a.words) {
		panic("memsys: array restore from a snapshot of a different design")
	}
	copy(a.words, st.words)
	a.sAddr, a.sWData, a.sWE, a.sRE = st.sAddr, st.sWData, st.sWE, st.sRE
}

func busValue(get func(netlist.NetID) sim.Value, nets []netlist.NetID) uint64 {
	var v uint64
	for i, id := range nets {
		if get(id) == sim.V1 {
			v |= 1 << uint(i)
		}
	}
	return v
}
