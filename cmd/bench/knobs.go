package main

import (
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
)

// This file owns every knob the benchmark pins. Anything not named
// here runs at the product's zero-value default, so a later "fast by
// default" change registers in the numbers instead of being masked by
// a benchmark-side setting.

// maxProcs caps GOMAXPROCS: the reference box has two cores, and a
// benchmark that silently scales with the host cannot be compared
// across hosts.
const maxProcs = 2

// pinnedSeeds: campaign workloads have their report digests pinned for
// -seed 1..pinnedSeeds; beyond that a run can only check that its ops
// agree with each other (and, on fleet_2w, with the serial reference).
const pinnedSeeds = 8

// designKnobs shapes one assessed design and its plan.
type designKnobs struct {
	Design    string // v1, v2 or cpu-lockstep
	AddrWidth int
	Words     int // validation workload slice (memory designs)
	Transient int
	Permanent int
}

// engineKnobs are the throughput knobs of one campaign engine. The
// zero value is what `certify -validate` runs today.
type engineKnobs struct {
	Lanes         int
	SnapshotEvery int
	Workers       int
	Collapse      bool
}

// campaignKnobs is one core.Run-shaped workload.
type campaignKnobs struct {
	Designs []designKnobs
	Engine  engineKnobs
	MinOps  int // timed ops a run makes even when -seconds is already spent
}

// servedKnobs is the served_mix traffic shape and daemon config.
type servedKnobs struct {
	Config  serve.Config // Clock is filled in by the harness
	Designs []string     // fresh design = Designs[planSeed mod len]
	// AddrWidth/Words shape the memory designs of every submission.
	AddrWidth, Words int
	// SeedSpace is the range of plan seeds fresh submissions are drawn
	// from; every (plan seed, target SIL) pair in it is pinned.
	SeedSpace int
	Clients   int
	Poll      time.Duration
	// Class mix: every block of ten consecutive ops holds exactly this
	// many fresh and repeat ops in seeded order, so two seeds differ in
	// the order of the traffic and not in how much engine work it asks
	// for. The rest of a block is regrade: a completed spec resubmitted
	// with RegradeSIL, which shares its whole campaign with the original
	// but is a cache miss today.
	FreshPer10, RepeatPer10 int
	RegradeSIL              int
	// RepeatWindow is how many of the latest completed fresh keys a
	// repeat or regrade draws from. Larger than Config.CacheCap on
	// purpose: part of the window has been FIFO-evicted.
	RepeatWindow int
	MinOps       int
}

// fleetKnobs is the fleet_2w campaign and its worker engines. Every
// dist.Config lease knob stays at its zero-value default.
type fleetKnobs struct {
	Spec         dist.Spec // Seed is filled in from -seed
	FleetWorkers int
	Engine       engineKnobs // per worker and for the serial reference
	Tick         time.Duration
	SerialRuns   int // in-process runs behind the serial reference
	MinOps       int
}

// sizing is one complete set of workload sizes.
type sizing struct {
	Name string
	// SetupRounds is how many times a run repeats its set-up; setup_s
	// is the median, so one slow design build does not decide it.
	SetupRounds int
	Certify     campaignKnobs
	Lanes       campaignKnobs
	LongTrace   campaignKnobs
	Served      servedKnobs
	Fleet       fleetKnobs
	// MicroIters scales the micro-line loops (traced runs only).
	MicroIters int
}

// leaseRows is the size of the range behind inject.range32_ms: the
// coordinator's default lease.
const leaseRows = 32

var fullSizing = sizing{
	Name:        "full",
	SetupRounds: 3,
	Certify: campaignKnobs{
		Designs: []designKnobs{
			{Design: "v2", AddrWidth: 8, Words: 8, Transient: 1, Permanent: 1},
			{Design: "cpu-lockstep", Transient: 1, Permanent: 1},
		},
		MinOps: 3,
	},
	Lanes: campaignKnobs{
		Designs: []designKnobs{{Design: "v2", AddrWidth: 8, Words: 8, Transient: 32, Permanent: 32}},
		Engine:  engineKnobs{Lanes: 64, SnapshotEvery: 16},
		MinOps:  5,
	},
	LongTrace: campaignKnobs{
		Designs: []designKnobs{{Design: "v2", AddrWidth: 8, Words: 256, Transient: 4, Permanent: 4}},
		Engine:  engineKnobs{Lanes: 64, SnapshotEvery: 64},
		MinOps:  3,
	},
	Served: servedKnobs{
		Config:       serve.Config{Workers: 1, EngineWorkers: 1, EngineLanes: 64, CacheCap: 64},
		Designs:      []string{"v2", "v1", "cpu-lockstep"},
		AddrWidth:    8,
		Words:        8,
		SeedSpace:    256,
		Clients:      2,
		Poll:         2 * time.Millisecond,
		FreshPer10:   5,
		RepeatPer10:  3,
		RegradeSIL:   2,
		RepeatWindow: 96,
		MinOps:       160,
	},
	Fleet: fleetKnobs{
		Spec: dist.Spec{Design: "v2", AddrWidth: 8, Words: 8, Transient: 32, Permanent: 32,
			Wide: 16, Warmstart: 16},
		FleetWorkers: 2,
		Engine:       engineKnobs{Lanes: 64, Workers: 1, Collapse: true},
		Tick:         200 * time.Millisecond,
		SerialRuns:   3,
		MinOps:       3,
	},
	MicroIters: 2000,
}

// smokeSizing keeps every code path of the five workloads (digest
// checks included) but on designs small enough for tier-1 tests.
var smokeSizing = sizing{
	Name:        "smoke",
	SetupRounds: 1,
	Certify: campaignKnobs{
		Designs: []designKnobs{
			{Design: "v2", AddrWidth: 4, Words: 2, Transient: 1, Permanent: 1},
			{Design: "cpu-lockstep", Transient: 1, Permanent: 1},
		},
		Engine: engineKnobs{Lanes: 64}, // scalar lockstep alone would eat the smoke budget
		MinOps: 1,
	},
	Lanes: campaignKnobs{
		Designs: []designKnobs{{Design: "v2", AddrWidth: 4, Words: 2, Transient: 2, Permanent: 2}},
		Engine:  engineKnobs{Lanes: 64, SnapshotEvery: 16},
		MinOps:  2,
	},
	LongTrace: campaignKnobs{
		Designs: []designKnobs{{Design: "v2", AddrWidth: 4, Words: 8, Transient: 1, Permanent: 1}},
		Engine:  engineKnobs{Lanes: 64, SnapshotEvery: 64},
		MinOps:  2,
	},
	Served: servedKnobs{
		Config:       serve.Config{Workers: 1, EngineWorkers: 1, EngineLanes: 64, CacheCap: 4},
		Designs:      []string{"v2", "v1"},
		AddrWidth:    4,
		Words:        2,
		SeedSpace:    16,
		Clients:      2,
		Poll:         2 * time.Millisecond,
		FreshPer10:   5,
		RepeatPer10:  3,
		RegradeSIL:   2,
		RepeatWindow: 6,
		MinOps:       8,
	},
	Fleet: fleetKnobs{
		Spec: dist.Spec{Design: "v2", AddrWidth: 4, Words: 2, Transient: 2, Permanent: 2,
			Wide: 4, Warmstart: 16},
		FleetWorkers: 2,
		Engine:       engineKnobs{Lanes: 64, Workers: 1, Collapse: true},
		Tick:         20 * time.Millisecond,
		SerialRuns:   1,
		MinOps:       1,
	},
	MicroIters: 20,
}
