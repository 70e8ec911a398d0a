package memsys

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// OpGap is the idle spacing the driver leaves between operations so the
// write buffer drains and the two-stage read pipeline returns before the
// next access (the paper's circuit trades this latency for timing
// closure).
const OpGap = 3

// AccessResult is the observed outcome of one operation.
type AccessResult struct {
	Op     workload.MemOp
	Data   uint64 // read data (reads only)
	Acked  bool
	Alarms map[string]bool // alarm ports that fired during the op window
}

// Session drives a built design cycle-accurately.
type Session struct {
	D   *Design
	Sim *sim.Simulator
	Arr *Array

	alarmPorts []string
	// AlarmCounts accumulates alarm assertions per port across the
	// session (one count per cycle asserted).
	AlarmCounts map[string]int
}

// NewSession builds a simulator around the design and runs it until the
// BIST releases the bus (ready=1).
func NewSession(d *Design) (*Session, error) {
	s, arr, err := d.NewSimulator()
	if err != nil {
		return nil, err
	}
	sess := &Session{D: d, Sim: s, Arr: arr, alarmPorts: d.AlarmPorts(), AlarmCounts: map[string]int{}}
	sess.idleInputs()
	s.Eval()
	// Let the BIST run (bounded wait).
	for i := 0; i < 64; i++ {
		if v, _ := s.ReadOutput("ready"); v == 1 {
			break
		}
		sess.step()
	}
	return sess, nil
}

func (s *Session) idleInputs() {
	s.Sim.SetInput("req", 0)
	s.Sim.SetInput("we", 0)
	s.Sim.SetInput("addr", 0)
	s.Sim.SetInput("wdata", 0)
	s.Sim.SetInput("priv", 1)
	if s.D.Cfg.MPU {
		s.Sim.SetInput("mpu_cfg", 0)
		s.Sim.SetInput("cfg_we", 0)
	}
}

// step advances one cycle, accumulating alarm counts.
func (s *Session) step() {
	s.Sim.Step()
	for _, p := range s.alarmPorts {
		if v, _ := s.Sim.ReadOutput(p); v == 1 {
			s.AlarmCounts[p]++
		}
	}
}

// DoPriv performs one memory operation with the given privilege
// attribute and returns the observed result. Reads report the decoded
// data returned when ack rose within the operation window.
func (s *Session) DoPriv(op workload.MemOp, privileged bool) AccessResult {
	res := AccessResult{Op: op, Alarms: map[string]bool{}}
	priv := uint64(0)
	if privileged {
		priv = 1
	}
	switch op.Kind {
	case workload.OpIdle:
		s.idleInputs()
	default:
		s.Sim.SetInput("req", 1)
		s.Sim.SetInput("addr", op.Addr)
		s.Sim.SetInput("priv", priv)
		if op.Kind == workload.OpWrite {
			s.Sim.SetInput("we", 1)
			s.Sim.SetInput("wdata", op.Data)
		} else {
			s.Sim.SetInput("we", 0)
			s.Sim.SetInput("wdata", 0)
		}
	}
	s.Sim.Eval()
	for c := 0; c <= OpGap; c++ {
		s.step()
		if c == 0 {
			s.idleInputs()
			s.Sim.Eval()
		}
		for _, p := range s.alarmPorts {
			if v, _ := s.Sim.ReadOutput(p); v == 1 {
				res.Alarms[p] = true
			}
		}
		if ack, _ := s.Sim.ReadOutput("ack"); ack == 1 && !res.Acked {
			res.Acked = true
			res.Data, _ = s.Sim.ReadOutput("rdata")
		}
	}
	return res
}
