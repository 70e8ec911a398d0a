// Package designs is the design catalogue: the one place where a design
// name ("v2", "cpu-lockstep", ...) becomes a netlist, a zone analysis
// and — where the design has one — the core.DUT the assessment flow and
// the injection campaign run on. Every front end (the cmd/ tools,
// dist.Spec.Build, serve.Submission) resolves names here, so they all
// accept the same vocabulary and build the same thing for it.
package designs

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/frcpu"
	"repro/internal/memsys"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/zones"
)

// The flow defaults: the shape cmd/certify grades and the one a served
// submission is normalized to. Tools without an -addr, -words or -seed
// flag of their own build at these.
const (
	DefaultAddr  = 8
	DefaultWords = 8
	DefaultSeed  = 1
)

// Design is one built catalogue entry.
type Design struct {
	N *netlist.Netlist
	// DUT is what the assessment flow and a campaign run on; nil when
	// the design is a netlist and its zones only (rand).
	DUT core.DUT
}

// builder builds one catalogue entry. addr and words shape the memory
// sub-system and its March workload; seed drives that workload and the
// random circuit. The CPU designs take none of the three: their program
// is the stimulus.
type builder func(addr, words int, seed uint64) (*Design, error)

// catalogue is the vocabulary, in the order error messages list it.
var catalogue = []struct {
	name   string
	hasDUT bool
	build  builder
}{
	{"v1", true, mem(memsys.V1Config)},
	{"v2", true, mem(memsys.V2Config)},
	{"cpu", true, cpu(frcpu.PlainConfig)},
	{"cpu-lockstep", true, cpu(frcpu.LockstepConfig)},
	{"rand", false, func(_, _ int, seed uint64) (*Design, error) {
		return &Design{N: randckt.Generate(randckt.Default(), seed)}, nil
	}},
}

func mem(config func() memsys.Config) builder {
	return func(addr, words int, seed uint64) (*Design, error) {
		cfg := config()
		cfg.AddrWidth = addr
		d, err := memsys.Build(cfg)
		if err != nil {
			return nil, err
		}
		return &Design{N: d.N, DUT: &memsys.FlowDUT{D: d, ValidationWords: words, Seed: seed}}, nil
	}
}

func cpu(config func() frcpu.Config) builder {
	return func(int, int, uint64) (*Design, error) {
		d, err := frcpu.Build(config())
		if err != nil {
			return nil, err
		}
		return &Design{N: d.N, DUT: frcpu.NewFlowDUT(d)}, nil
	}
}

// Vocabulary renders the catalogue's names for help texts and errors:
// "v1, v2, cpu, cpu-lockstep or rand", without rand when needDUT.
func Vocabulary(needDUT bool) string {
	var names []string
	for _, e := range catalogue {
		if e.hasDUT || !needDUT {
			names = append(names, e.name)
		}
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

// lookup finds name in the catalogue; needDUT also refuses a design
// that cannot be assessed or run a campaign.
func lookup(name string, needDUT bool) (builder, error) {
	for _, e := range catalogue {
		if e.name != name {
			continue
		}
		if needDUT && !e.hasDUT {
			return nil, fmt.Errorf("design %q has no DUT — no worksheet, workload or injection target (want %s)", name, Vocabulary(true))
		}
		return e.build, nil
	}
	return nil, fmt.Errorf("unknown design %q (want %s)", name, Vocabulary(needDUT))
}

// CheckDUT reports, without building anything, whether BuildDUT knows
// the name: the input check of every front end that runs the flow.
func CheckDUT(name string) error {
	_, err := lookup(name, true)
	return err
}

// Build builds the named design. Nothing is shared between two builds.
func Build(name string, addr, words int, seed uint64) (*Design, error) {
	build, err := lookup(name, false)
	if err != nil {
		return nil, err
	}
	return build(addr, words, seed)
}

// BuildDUT builds the named design for a caller that assesses it or
// runs a campaign on it; a design without a DUT (rand) is an error.
func BuildDUT(name string, addr, words int, seed uint64) (core.DUT, error) {
	build, err := lookup(name, true)
	if err != nil {
		return nil, err
	}
	d, err := build(addr, words, seed)
	if err != nil {
		return nil, err
	}
	return d.DUT, nil
}

// Analyze extracts the design's sensible zones: the DUT's own profile
// where there is one, the default extraction otherwise.
func (d *Design) Analyze() (*zones.Analysis, error) {
	if d.DUT != nil {
		return d.DUT.Analyze()
	}
	return zones.Extract(d.N, zones.DefaultConfig())
}
