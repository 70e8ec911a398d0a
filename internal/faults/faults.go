// Package faults defines the physical hardware fault models the paper's
// FMEA reasons about — stuck-at, transient bit-flip (SEU), bridging and
// delay faults — plus fault-universe generation, classic structural
// equivalence collapsing, and the local/wide/global classification of
// Section 3.
package faults

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Kind is the physical fault model.
type Kind uint8

// Fault kinds. SA0/SA1 are permanent stuck-ats; Flip is a single-event
// upset of a flip-flop state; BridgeAND/BridgeOR couple two nets;
// DelayX models a timing fault by driving a net unknown.
const (
	SA0 Kind = iota
	SA1
	Flip
	BridgeAND
	BridgeOR
	DelayX
)

var kindNames = [...]string{"SA0", "SA1", "FLIP", "BRAND", "BROR", "DELAYX"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// SiteKind says where the fault attaches.
type SiteKind uint8

// Fault sites: a whole net (gate output / PI / FF output), a single gate
// input pin, or a flip-flop state bit.
const (
	SiteNet SiteKind = iota
	SitePin
	SiteFF
)

func (s SiteKind) String() string {
	switch s {
	case SiteNet:
		return "net"
	case SitePin:
		return "pin"
	case SiteFF:
		return "flip-flop"
	}
	return fmt.Sprintf("SiteKind(%d)", uint8(s))
}

// Fault is one injectable physical fault.
type Fault struct {
	Kind Kind
	Site SiteKind

	Net  netlist.NetID // SiteNet: target; BridgeAND/OR: first net
	Net2 netlist.NetID // bridge partner
	Gate netlist.GateID
	Pin  int
	FF   netlist.FFID
}

// NetSA returns a net stuck-at fault.
func NetSA(net netlist.NetID, v bool) Fault {
	k := SA0
	if v {
		k = SA1
	}
	return Fault{Kind: k, Site: SiteNet, Net: net, Net2: netlist.InvalidNet}
}

// PinSA returns a gate-input-pin stuck-at fault.
func PinSA(g netlist.GateID, pin int, v bool) Fault {
	k := SA0
	if v {
		k = SA1
	}
	return Fault{Kind: k, Site: SitePin, Gate: g, Pin: pin, Net: netlist.InvalidNet, Net2: netlist.InvalidNet}
}

// FFFlip returns a transient state-flip fault on a flip-flop.
func FFFlip(ff netlist.FFID) Fault {
	return Fault{Kind: Flip, Site: SiteFF, FF: ff, Net: netlist.InvalidNet, Net2: netlist.InvalidNet}
}

// NetBridge returns a bridging fault between two nets.
func NetBridge(a, b netlist.NetID, wiredAND bool) Fault {
	k := BridgeOR
	if wiredAND {
		k = BridgeAND
	}
	return Fault{Kind: k, Site: SiteNet, Net: a, Net2: b}
}

// NetDelay returns a delay/timing fault on a net (modeled as unknown).
func NetDelay(net netlist.NetID) Fault {
	return Fault{Kind: DelayX, Site: SiteNet, Net: net, Net2: netlist.InvalidNet}
}

// Describe renders the fault with net/gate names from the netlist.
func (f Fault) Describe(n *netlist.Netlist) string {
	switch f.Site {
	case SitePin:
		g := n.Gates[f.Gate]
		return fmt.Sprintf("%s@%s.g%d.pin%d(%s)", f.Kind, g.Type, f.Gate, f.Pin, n.NetName(g.Inputs[f.Pin]))
	case SiteFF:
		return fmt.Sprintf("%s@FF(%s)", f.Kind, n.FFs[f.FF].Name)
	default:
		if f.Kind == BridgeAND || f.Kind == BridgeOR {
			return fmt.Sprintf("%s@(%s,%s)", f.Kind, n.NetName(f.Net), n.NetName(f.Net2))
		}
		return fmt.Sprintf("%s@%s", f.Kind, n.NetName(f.Net))
	}
}

// Apply arms the fault on a simulator. Transient flips take effect
// immediately (state toggled once); permanent faults stay armed until
// Remove (or Simulator.ReleaseAll).
func (f Fault) Apply(s *sim.Simulator) {
	switch f.Kind {
	case SA0, SA1:
		v := sim.V0
		if f.Kind == SA1 {
			v = sim.V1
		}
		if f.Site == SitePin {
			s.ForcePin(f.Gate, f.Pin, v)
		} else {
			s.ForceNet(f.Net, v)
		}
	case Flip:
		s.FlipFF(f.FF)
	case BridgeAND:
		s.AddBridge(f.Net, f.Net2, sim.WiredAND)
	case BridgeOR:
		s.AddBridge(f.Net, f.Net2, sim.WiredOR)
	case DelayX:
		s.ForceNet(f.Net, sim.VX)
	}
	s.Eval()
}

// Remove disarms a permanent fault. A Flip is not un-done (the upset
// already happened); campaigns restore a snapshot instead.
func (f Fault) Remove(s *sim.Simulator) {
	switch f.Kind {
	case SA0, SA1, DelayX:
		if f.Site == SitePin {
			s.ReleasePin(f.Gate, f.Pin)
		} else {
			s.ReleaseNet(f.Net)
		}
	case BridgeAND, BridgeOR:
		s.RemoveBridges()
	}
	s.Eval()
}

// Class is the paper's Section 3 classification of physical HW faults by
// how many sensible-zone logic cones they touch.
type Class uint8

// Local faults sit in exactly one zone's cone; Wide faults contribute to
// several zones (multiple failures, Fig. 2); Global faults hit a large
// share of the design (clock trees, power, thermal).
const (
	Local Class = iota
	Wide
	Global
)

func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case Wide:
		return "wide"
	default:
		return "global"
	}
}

// Classify maps "in how many zone cones does this fault site appear" to
// the local/wide/global taxonomy. globalFrac is the fraction of all
// zones above which a fault counts as global (the paper's examples —
// clock roots, power — touch "large numbers" of zones; 0.25 is the
// default used by the tools).
func Classify(zonesTouched, totalZones int, globalFrac float64) Class {
	switch {
	case zonesTouched <= 1:
		return Local
	case totalZones > 0 && float64(zonesTouched) >= globalFrac*float64(totalZones):
		return Global
	default:
		return Wide
	}
}
