// Package fit models elementary failure rates (Failures In Time, i.e.
// failures per 10^9 device-hours) per gate, flip-flop and memory bit,
// for both transient and permanent faults. The FMEA multiplies these
// base rates by each sensible zone's composition (FF count, fan-in cone
// gate count) exactly as the paper's spreadsheet does.
//
// The defaults are literature-style figures for a ~90 nm automotive
// process (SRAM/FF soft-error rates near 10^-3 FIT/bit, logic transients
// an order of magnitude lower with a latching derate, permanent rates in
// the tens of FIT per million gates). SFF and DC are ratios of rates, so
// their reproduction is insensitive to the absolute calibration; the
// sensitivity experiment (E5) spans these values explicitly.
package fit

// Rates is a set of elementary FIT rates.
type Rates struct {
	// GatePermanent is the permanent-fault FIT per combinational gate.
	GatePermanent float64
	// GateTransient is the raw transient-fault FIT per gate, before the
	// latching derate.
	GateTransient float64
	// LatchingFraction derates logic transients: a glitch only matters
	// if sampled by the downstream flip-flop.
	LatchingFraction float64
	// FFPermanent / FFTransient are per-flip-flop FIT rates.
	FFPermanent float64
	FFTransient float64
	// MemBitPermanent / MemBitTransient are per-memory-bit FIT rates
	// (the array dominates the transient budget of a memory sub-system).
	MemBitPermanent float64
	MemBitTransient float64
}

// Default returns the baseline calibration.
func Default() Rates {
	return Rates{
		GatePermanent:    5e-5,
		GateTransient:    3e-4,
		LatchingFraction: 0.4,
		FFPermanent:      1e-4,
		FFTransient:      2.5e-3,
		MemBitPermanent:  2e-5,
		MemBitTransient:  1e-3,
	}
}

// Contribution is a transient/permanent FIT pair.
type Contribution struct {
	Transient float64
	Permanent float64
}

// Total returns transient + permanent FIT.
func (c Contribution) Total() float64 { return c.Transient + c.Permanent }

// LogicCone computes the FIT contribution of a pure combinational cone
// (output zones, sub-block zones).
func (r Rates) LogicCone(coneGates int) Contribution {
	return Contribution{
		Transient: float64(coneGates) * r.GateTransient * r.LatchingFraction,
		Permanent: float64(coneGates) * r.GatePermanent,
	}
}

// MemoryArray computes the FIT contribution of a memory array of the
// given capacity in bits.
func (r Rates) MemoryArray(bits int) Contribution {
	return Contribution{
		Transient: float64(bits) * r.MemBitTransient,
		Permanent: float64(bits) * r.MemBitPermanent,
	}
}
