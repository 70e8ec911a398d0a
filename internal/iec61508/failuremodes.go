package iec61508

// FailureMode is one of the faults/failures IEC 61508-2 requires to be
// detected during operation or analyzed in the derivation of the safe
// failure fraction (the norm's Annex A tables, quoted in the paper's
// Section 2).
type FailureMode uint8

// Failure modes for variable memories, processing units and general
// digital logic. The enumerators group the norm's per-component tables.
const (
	// Variable memory (Table A.6 family).
	FMStuckAtData     FailureMode = iota // DC fault model on data
	FMStuckAtAddress                     // DC fault model on addresses
	FMCrossOver                          // dynamic cross-over between memory cells
	FMWrongAddressing                    // no, wrong or multiple addressing
	FMSoftError                          // change of information caused by soft errors

	// Processing units (Table A.10 family).
	FMRegisterStuck  // DC fault model on internal registers
	FMWrongCoding    // wrong coding or wrong execution
	FMWrongExecution // wrong execution incl. flag registers

	// General digital logic / interconnect.
	FMStuckAtLogic // stuck-at in combinational logic
	FMBridging     // bridging / coupling between lines
	FMTransient    // transient bit-flip (SEU) in a memory element
	FMClockFault   // clock or reset distribution fault
	FMTimingFault  // delay / timing degradation (thermal, marginal)
)

var fmNames = [...]string{
	"stuck-at data", "stuck-at address", "dynamic cross-over",
	"no/wrong/multiple addressing", "soft error",
	"register stuck-at", "wrong coding", "wrong execution",
	"logic stuck-at", "bridging", "transient bit-flip",
	"clock/reset fault", "timing fault",
}

func (f FailureMode) String() string {
	if int(f) < len(fmNames) {
		return fmNames[f]
	}
	return "unknown failure mode"
}

// ComponentClass selects a failure-mode catalog.
type ComponentClass uint8

// Component classes with distinct Annex A failure-mode tables.
const (
	VariableMemory ComponentClass = iota
	ProcessingUnit
	DigitalLogic
	Interconnect
)

func (c ComponentClass) String() string {
	switch c {
	case VariableMemory:
		return "variable memory"
	case ProcessingUnit:
		return "processing unit"
	case Interconnect:
		return "interconnect"
	default:
		return "digital logic"
	}
}

// CatalogFor returns the failure modes the norm requires to be analyzed
// for a component class.
func CatalogFor(c ComponentClass) []FailureMode {
	switch c {
	case VariableMemory:
		return []FailureMode{FMStuckAtData, FMStuckAtAddress, FMCrossOver, FMWrongAddressing, FMSoftError}
	case ProcessingUnit:
		return []FailureMode{FMRegisterStuck, FMCrossOver, FMWrongCoding, FMWrongExecution, FMTransient}
	case DigitalLogic:
		return []FailureMode{FMStuckAtLogic, FMBridging, FMTransient, FMTimingFault}
	case Interconnect:
		return []FailureMode{FMStuckAtLogic, FMBridging, FMClockFault, FMTimingFault}
	}
	return nil
}
