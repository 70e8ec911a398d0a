package drc

// Clean reports whether the run produced no error-level findings.
func (r *Result) Clean() bool { return r.Count(Error) == 0 }
