package inject

import (
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Read-only views of the kernel replays for the differential tests,
// which compare them against interpreted replays of their own.

// ObsTrace returns the golden value and X-mask streams of observation
// point oi.
func (g *Golden) ObsTrace(oi int) (val, x []uint64) { return g.obs[oi].val, g.obs[oi].x }

// ZoneFolds returns zone zi's per-cycle output fold.
func (g *Golden) ZoneFolds(zi int) []uint64 { return g.zoneVals[zi] }

// Snapshots returns the golden-state snapshots in cycle order.
func (g *Golden) Snapshots() []*sim.Snapshot { return g.snaps }

// WriteCheckpoint writes a checkpoint file for the plan, so tests can
// forge the files a campaign resumes from.
func WriteCheckpoint(path string, ck *Checkpoint, plan []Injection) error {
	return NewCodec(plan).write(path, ck)
}

// LoadCheckpoint reads and validates a checkpoint file against the plan.
func LoadCheckpoint(path string, plan []Injection) (*Checkpoint, error) {
	return NewCodec(plan).load(path)
}

// Quiescence runs the static pre-pass's quiescence replay of the plan.
func (t *Target) Quiescence(g *Golden, plan []Injection) (pre, post map[netlist.NetID][]sim.Value, ffPost map[netlist.FFID][]sim.Value) {
	q := t.traceQuiescence(g, plan)
	return q.pre, q.post, q.ffPost
}
