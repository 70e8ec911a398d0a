// Package iec61508 encodes the parts of IEC 61508 the methodology uses:
// Safety Integrity Levels, the architectural-constraints table mapping
// Safe Failure Fraction and Hardware Fault Tolerance to the maximum
// claimable SIL (IEC 61508-2 Tables 2 and 3), the failure-mode catalogs
// for variable memories and processing units (Annex A tables referenced
// by the paper's Section 2), and the maximum diagnostic coverage the
// norm considers achievable per diagnostic technique (Tables A.2–A.13).
package iec61508

import "fmt"

// SIL is a Safety Integrity Level. SILNone means no SIL claimable.
type SIL int

// Safety integrity levels; SIL4 is the highest integrity.
const (
	SILNone SIL = 0
	SIL1    SIL = 1
	SIL2    SIL = 2
	SIL3    SIL = 3
	SIL4    SIL = 4
)

func (s SIL) String() string {
	if s == SILNone {
		return "none"
	}
	return fmt.Sprintf("SIL%d", int(s))
}

// SFFBand is a Safe Failure Fraction band of the architectural-
// constraints tables.
type SFFBand int

// SFF bands: <60 %, 60–90 %, 90–99 %, ≥99 %.
const (
	BandBelow60 SFFBand = iota
	Band60to90
	Band90to99
	Band99up
)

func (b SFFBand) String() string {
	switch b {
	case BandBelow60:
		return "< 60%"
	case Band60to90:
		return "60% – < 90%"
	case Band90to99:
		return "90% – < 99%"
	default:
		return ">= 99%"
	}
}

// BandOf buckets an SFF value (in [0,1]) into its band.
func BandOf(sff float64) SFFBand {
	switch {
	case sff < 0.60:
		return BandBelow60
	case sff < 0.90:
		return Band60to90
	case sff < 0.99:
		return Band90to99
	default:
		return Band99up
	}
}

// typeATable and typeBTable encode IEC 61508-2 Tables 2 and 3
// (architectural constraints, route 1_H): maximum claimable SIL indexed
// by [band][HFT] for HFT 0..2.
var typeATable = [4][3]SIL{
	BandBelow60: {SIL1, SIL2, SIL3},
	Band60to90:  {SIL2, SIL3, SIL4},
	Band90to99:  {SIL3, SIL4, SIL4},
	Band99up:    {SIL3, SIL4, SIL4},
}

var typeBTable = [4][3]SIL{
	BandBelow60: {SILNone, SIL1, SIL2},
	Band60to90:  {SIL1, SIL2, SIL3},
	Band90to99:  {SIL2, SIL3, SIL4},
	Band99up:    {SIL3, SIL4, SIL4},
}

// MaxSIL returns the maximum claimable SIL for a component with the
// given SFF and hardware fault tolerance. typeB selects the Type B table
// (complex components whose failure modes are not fully defined — SoCs
// are Type B; the paper's SIL3 @ SFF ≥ 99 %, HFT 0 requirement is the
// Type B row). HFT above 2 clamps to 2.
func MaxSIL(sff float64, hft int, typeB bool) SIL {
	if hft < 0 {
		hft = 0
	}
	if hft > 2 {
		hft = 2
	}
	if typeB {
		return typeBTable[BandOf(sff)][hft]
	}
	return typeATable[BandOf(sff)][hft]
}

// RequiredSFF returns the minimum SFF band needed to claim the target
// SIL at the given HFT for a Type B component, and whether the target is
// achievable at all at that HFT.
func RequiredSFF(target SIL, hft int) (SFFBand, bool) {
	if hft < 0 {
		hft = 0
	}
	if hft > 2 {
		hft = 2
	}
	for b := BandBelow60; b <= Band99up; b++ {
		if typeBTable[b][hft] >= target {
			return b, true
		}
	}
	return Band99up, false
}

// PFH is the probability of a dangerous failure per hour — the target
// failure measure for safety functions operating in high-demand or
// continuous mode (IEC 61508-1 Table 3). For an element assessed by
// FMEA, the undetected dangerous rate λDU (in FIT = failures per 10^9 h)
// converts directly: PFH = λDU × 1e-9 / h.
func PFH(lambdaDUFIT float64) float64 {
	return lambdaDUFIT * 1e-9
}

// SILFromPFH grades a PFH value: the highest SIL whose band upper edge
// exceeds it (SILNone when even SIL1's bound is exceeded).
func SILFromPFH(pfh float64) SIL {
	switch {
	case pfh < 1e-8:
		return SIL4
	case pfh < 1e-7:
		return SIL3
	case pfh < 1e-6:
		return SIL2
	case pfh < 1e-5:
		return SIL1
	}
	return SILNone
}

// MinSFFValue returns the numeric lower edge of a band.
func (b SFFBand) MinSFFValue() float64 {
	switch b {
	case BandBelow60:
		return 0
	case Band60to90:
		return 0.60
	case Band90to99:
		return 0.90
	default:
		return 0.99
	}
}
