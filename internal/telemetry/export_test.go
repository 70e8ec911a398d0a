package telemetry

// Start opens a span under parent (pass the zero Span for a root).
func (t *Tracer) Start(name string, parent Span) Span {
	if t == nil {
		return Span{}
	}
	return t.start(name, parent.in(t), 0, "", 0, nil)
}
