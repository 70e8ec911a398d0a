package frcpu

import "repro/internal/sim"

// NewSimulator returns a simulator with run asserted.
func (d *Design) NewSimulator() (*sim.Simulator, error) {
	s, err := sim.New(d.N)
	if err != nil {
		return nil, err
	}
	s.SetInput("run", 1)
	s.Eval()
	return s, nil
}
