package memsys

import "repro/internal/workload"

// Do performs one memory operation with the privileged attribute.
func (s *Session) Do(op workload.MemOp) AccessResult { return s.DoPriv(op, true) }

// Peek reads a word directly (scoreboard access, no fault effects beyond
// what is already stored).
func (a *Array) Peek(addr uint64) uint64 { return a.words[addr&uint64(len(a.words)-1)] }
