package workload

// Value returns the value of a port at a cycle.
func (t *Trace) Value(cycle int, port string) uint64 {
	return t.Vecs[cycle][t.index[port]]
}
