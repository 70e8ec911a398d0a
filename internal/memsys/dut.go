package memsys

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// Config selects the memory sub-system implementation. V1Config and
// V2Config reproduce the paper's two circuits; the individual flags
// support the ablation experiment (each of Section 6's design measures
// toggled independently).
type Config struct {
	Name      string
	DataWidth int
	AddrWidth int
	Variant   Variant

	// The five Section 6 measures (all false = V1, all true = V2).
	AddrInCode          bool // (IEC-required) fold addresses into the code
	WBufParity          bool // parity bits on the write buffer
	CoderCheck          bool // error checker right after the coder
	RedundantChecker    bool // double-redundant checker after the pipeline
	DistributedSyndrome bool // fine-grained error discrimination
	// Bypass is part of measure (ii): with no error, connect the decoder
	// output directly to the memory data.
	Bypass bool

	// Base architecture features (present in both implementations).
	Scrubber  bool
	BIST      bool
	MPU       bool
	PrivPages uint64 // bitmask over the 8 MPU pages
}

// V1Config is the paper's first implementation: standard modified
// Hamming SEC-DED with write buffer and decoder pipeline stage, no
// extra checkers. SFF ≈ 95 % in the paper.
func V1Config() Config {
	return Config{
		Name: "memsub-v1", DataWidth: 32, AddrWidth: 8, Variant: HsiaoA,
		Scrubber: true, BIST: true, MPU: true, PrivPages: 0x80,
	}
}

// V2Config adds the five design measures; the paper's final
// implementation with SFF = 99.38 %.
func V2Config() Config {
	cfg := V1Config()
	cfg.Name = "memsub-v2"
	cfg.AddrInCode = true
	cfg.WBufParity = true
	cfg.CoderCheck = true
	cfg.RedundantChecker = true
	cfg.DistributedSyndrome = true
	cfg.Bypass = true
	return cfg
}

// Design is a built memory sub-system: the gate-level netlist plus the
// array port bindings needed to attach the behavioral memory.
type Design struct {
	Cfg   Config
	Codec *Codec
	N     *netlist.Netlist

	memAddr  rtl.Bus
	memWData rtl.Bus
	memWE    netlist.NetID
	memRE    netlist.NetID
	memRData rtl.Bus
}

// WordWidth is the stored word width (data + check bits).
func (d *Design) WordWidth() int { return d.Codec.WordWidth() }

// maxSimAddrWidth bounds the address width NewSimulator accepts: the
// behavioral array it attaches holds 2^AddrWidth words. Building,
// zoning and grading a design allocate no array and take any width.
const maxSimAddrWidth = 16

// NewSimulator attaches a fresh memory array and returns a simulator
// ready to run (reset applied, inputs still undriven).
func (d *Design) NewSimulator() (*sim.Simulator, *Array, error) {
	if d.Cfg.AddrWidth > maxSimAddrWidth {
		return nil, nil, fmt.Errorf("memsys: address width %d exceeds the simulated array's limit of %d bits", d.Cfg.AddrWidth, maxSimAddrWidth)
	}
	s, err := sim.New(d.N)
	if err != nil {
		return nil, nil, err
	}
	arr := NewArray(d.Cfg.AddrWidth, d.WordWidth(),
		d.memAddr, d.memWData, d.memWE, d.memRE, d.memRData)
	s.AttachPeripheral(arr)
	return s, arr, nil
}

// Build elaborates the memory sub-system of Fig. 5 into a gate-level
// netlist.
func Build(cfg Config) (*Design, error) {
	if cfg.DataWidth <= 0 || cfg.AddrWidth < 3 {
		return nil, fmt.Errorf("memsys: need DataWidth > 0 and AddrWidth >= 3, got %d/%d", cfg.DataWidth, cfg.AddrWidth)
	}
	codecAddr := 0
	if cfg.AddrInCode {
		codecAddr = cfg.AddrWidth
	}
	codec, err := NewCodec(cfg.DataWidth, codecAddr, cfg.Variant)
	if err != nil {
		return nil, err
	}
	m := rtl.NewModule(cfg.Name)
	d := &Design{Cfg: cfg, Codec: codec}

	// Primary inputs. mpu_cfg/cfg_we reprogram the MPU page attributes
	// at run time (the distributed-MPU page permission table).
	req := m.Input("req", 1)[0]
	we := m.Input("we", 1)[0]
	addr := m.Input("addr", cfg.AddrWidth)
	wdata := m.Input("wdata", cfg.DataWidth)
	priv := m.Input("priv", 1)[0]
	var mpuCfg rtl.Bus
	var cfgWE netlist.NetID
	if cfg.MPU {
		mpuCfg = m.Input("mpu_cfg", 8)
		cfgWE = m.Input("cfg_we", 1)[0]
	}

	// ---- BIST: start-up test sequencer (MCE grants it the bus until
	// it completes). ----
	effReq, effWE, effPriv := req, we, priv
	effAddr, effWData := addr, wdata
	ready := m.High()
	var bistExpect rtl.Bus
	var bistCompare netlist.NetID
	if cfg.BIST {
		m.PushBlock("BIST")
		step := m.NewReg("bist_step", 4, 0)
		readyReg := m.NewReg("bist_ready", 1, 0)
		notReady := m.NotBit(readyReg.Q[0])
		next, _ := m.Inc(step.Q)
		step.SetD(next)
		step.SetEnable(notReady)
		done := m.EqConst(step.Q, 10)
		readyReg.SetD(rtl.Bus{m.OrBit(readyReg.Q[0], done)})
		ready = readyReg.Q[0]

		patA := m.Const(cfg.DataWidth, 0xA5A5A5A5A5A5A5A5)
		patB := m.Const(cfg.DataWidth, 0x5A5A5A5A5A5A5A5A)
		wrStep := m.OrBit(m.EqConst(step.Q, 0), m.EqConst(step.Q, 5))
		rdStep := m.OrBit(m.EqConst(step.Q, 2), m.EqConst(step.Q, 7))
		secondHalf := m.Ule(m.Const(4, 5), step.Q)
		bistWData := m.Mux(secondHalf, patA, patB)
		bistExpect = m.Mux(m.EqConst(step.Q, 9), patA, patB)
		bistCompare = m.AndBit(notReady, m.OrBit(m.EqConst(step.Q, 4), m.EqConst(step.Q, 9)))

		bistReq := m.AndBit(notReady, m.OrBit(wrStep, rdStep))
		// While BIST owns the bus, external requests are ignored.
		effReq = m.MuxBit(ready, bistReq, req)
		effWE = m.MuxBit(ready, m.AndBit(notReady, wrStep), we)
		effAddr = m.Mux(ready, m.Const(cfg.AddrWidth, 0), addr)
		effWData = m.Mux(ready, bistWData, wdata)
		effPriv = m.MuxBit(ready, m.High(), priv)
		m.PopBlock()
	}

	// ---- MCE / MPU: bus-attribute check over 8 pages with a run-time
	// programmable permission register (reset to cfg.PrivPages). ----
	grant := effReq
	alarmMPU := m.Low()
	if cfg.MPU {
		m.PushBlock("MCE/MPU")
		pagesReg := m.RegEn("mpu_pages", mpuCfg, cfgWE, cfg.PrivPages)
		pageBits := effAddr.Slice(cfg.AddrWidth-3, cfg.AddrWidth)
		pages := m.Decode(pageBits)
		privNeeded := m.ReduceOr(m.And(pages, pagesReg))
		privOK := m.OrBit(effPriv, m.NotBit(privNeeded))
		alarmMPU = m.AndBit(effReq, m.NotBit(privOK))
		grant = m.AndBit(effReq, privOK)
		m.PopBlock()
	}

	// ---- MCE / AHBIF: request decode. ----
	m.PushBlock("MCE/AHBIF")
	wrAccept := m.AndBit(grant, effWE)
	rdRequest := m.AndBit(grant, m.NotBit(effWE))
	m.PopBlock()

	// ---- Write buffer: a registered entry decoupling bus writes from
	// the encode + array-write path (the paper's timing-closure buffer).
	// CPU reads have port priority, so the buffered word drains on the
	// first non-read cycle; a new write may land as the old one drains.
	m.PushBlock("WBUF")
	validReg := m.NewReg("wbuf_valid", 1, 0)
	deq := m.AndBit(validReg.Q[0], m.NotBit(rdRequest))
	canAccept := m.OrBit(m.NotBit(validReg.Q[0]), deq)
	enq := m.AndBit(wrAccept, canAccept)
	wbufAddr := m.RegEn("wbuf_addr", effAddr, enq, 0)
	wbufData := m.RegEn("wbuf_data", effWData, enq, 0)
	validNext := m.OrBit(enq, m.AndBit(validReg.Q[0], m.NotBit(deq)))
	validReg.SetD(rtl.Bus{validNext})
	draining := deq
	alarmWBuf := m.Low()
	if cfg.WBufParity {
		parIn := m.Parity(rtl.Concat(effAddr, effWData))
		wbufPar := m.RegEn("wbuf_par", rtl.Bus{parIn}, enq, 0)
		parOut := m.Parity(rtl.Concat(wbufAddr, wbufData))
		alarmWBuf = m.AndBit(draining, m.XorBit(parOut, wbufPar[0]))
	}
	m.PopBlock()
	wbufValid := rtl.Bus{draining}
	wbufOccupied := validReg.Q[0]

	// ---- F-MEM / CODER: SEC-DED encoder (+ optional checker). ----
	m.PushBlock("F_MEM/CODER")
	var encAddrBus rtl.Bus
	if cfg.AddrInCode {
		encAddrBus = wbufAddr
	}
	check := codec.BuildEncoder(m, wbufData, encAddrBus)
	alarmCoder := m.Low()
	if cfg.CoderCheck {
		check2 := codec.BuildEncoder(m, wbufData, encAddrBus)
		alarmCoder = m.AndBit(wbufValid[0], m.Ne(check, check2))
	}
	m.PopBlock()

	// ---- Scrubber (F-MEM DMA path through the MCE). ----
	// Declared before MEMCTRL because the port muxes consume its
	// signals; its memory-data consumers are wired afterwards.
	scrubWE := m.Low()
	scrubRE := m.Low()
	scrubAddr := m.Const(cfg.AddrWidth, 0)
	scrubWord := m.Const(codec.WordWidth(), 0)
	alarmScrub := m.Low()
	var scrubWire func(memRData rtl.Bus)
	if cfg.Scrubber {
		m.PushBlock("F_MEM/SCRUB")
		state := m.NewReg("scrub_state", 2, 0)
		ptr := m.NewReg("scrub_ptr", cfg.AddrWidth, 0)
		capReg := m.NewReg("scrub_cap", codec.WordWidth(), 0)
		idle := m.AndBit(m.NotBit(effReq), m.NotBit(wbufOccupied))

		stIdle := m.EqConst(state.Q, 0)
		stWait := m.EqConst(state.Q, 1)
		stFix := m.EqConst(state.Q, 2)
		stNext := m.EqConst(state.Q, 3)

		scrubRE = m.AndBit(stIdle, idle)
		scrubAddr = ptr.Q

		// State transitions: IDLE -(issue)-> WAIT -> FIX -> NEXT -> IDLE.
		advance := m.OrBit(scrubRE, m.OrBit(stWait, m.OrBit(stFix, stNext)))
		nextState, _ := m.Inc(state.Q)
		state.SetD(m.Mux(advance, state.Q, nextState))

		nextPtr, _ := m.Inc(ptr.Q)
		ptr.SetD(nextPtr)
		ptr.SetEnable(stNext)

		// Decode the captured word with dedicated scrub logic.
		capData := capReg.Q.Slice(0, cfg.DataWidth)
		capCheck := capReg.Q.Slice(cfg.DataWidth, codec.WordWidth())
		var scrubAddrBus rtl.Bus
		if cfg.AddrInCode {
			scrubAddrBus = ptr.Q
		}
		dec := codec.BuildDecoder(m, capData, scrubAddrBus, capCheck, false, false)
		canFix := m.AndBit(stFix, m.AndBit(dec.Single, idle))
		scrubWE = canFix
		alarmScrub = m.AndBit(stFix, dec.Single)
		fixedCheck := codec.BuildEncoder(m, dec.Data, scrubAddrBus)
		scrubWord = rtl.Concat(dec.Data, fixedCheck)

		// Capture wiring needs the memory read bus; defer.
		scrubWire = func(memRData rtl.Bus) {
			capReg.SetD(memRData)
			capReg.SetEnable(stWait)
		}
		m.PopBlock()
	}

	// ---- MEMCTRL: memory port arbitration (CPU read > wbuf drain >
	// scrubber; the drain signal already excludes read cycles). ----
	m.PushBlock("MEMCTRL")
	rdAccept := rdRequest
	memWE := m.OrBit(wbufValid[0], scrubWE)
	memRE := m.OrBit(rdAccept, scrubRE)
	memAddr := m.Mux(rdAccept,
		m.Mux(wbufValid[0], scrubAddr, wbufAddr),
		effAddr)
	wbufWord := rtl.Concat(wbufData, check)
	memWData := m.Mux(wbufValid[0], scrubWord, wbufWord)
	m.PopBlock()

	memRData := m.External("mem_rdata", codec.WordWidth())
	m.Keep(memAddr)
	m.Keep(memWData)
	m.Keep(rtl.Bus{memWE, memRE})
	if scrubWire != nil {
		scrubWire(memRData)
	}

	// ---- F-MEM / DECODER: read pipeline stage + SEC-DED decode. ----
	m.PushBlock("F_MEM/DECODER")
	rdPend := m.RegNext("rd_pend", rtl.Bus{rdAccept}, 0)
	rdAddrQ := m.RegEn("rd_addr", effAddr, rdAccept, 0)
	pipeWord := m.RegEn("pipe_word", memRData, rdPend[0], 0)
	pipeAddr := m.RegEn("pipe_addr", rdAddrQ, rdPend[0], 0)
	pipeValid := m.RegNext("pipe_valid", rdPend, 0)

	pipeData := pipeWord.Slice(0, cfg.DataWidth)
	pipeCheck := pipeWord.Slice(cfg.DataWidth, codec.WordWidth())
	var decAddrBus rtl.Bus
	if cfg.AddrInCode {
		decAddrBus = pipeAddr
	}
	dec := codec.BuildDecoder(m, pipeData, decAddrBus, pipeCheck, cfg.DistributedSyndrome, cfg.Bypass)
	alarmDec := m.Low()
	if cfg.RedundantChecker {
		syn2 := codec.SyndromeBus(m, pipeData, decAddrBus, pipeCheck)
		alarmDec = m.AndBit(pipeValid[0], m.Ne(dec.Syn, syn2))
	}
	m.PopBlock()

	// ---- F-MEM / ERRCTRL: alarm conditioning plus the error log the
	// scrubbing feature uses ("stores the locations where an error
	// occurred"): last error address, last syndrome, saturating count.
	m.PushBlock("F_MEM/ERRCTRL")
	alarmCorr := m.AndBit(pipeValid[0], dec.Single)
	alarmUncorr := m.AndBit(pipeValid[0], dec.Double)
	alarmAddr := m.Low()
	if cfg.DistributedSyndrome {
		alarmAddr = m.AndBit(pipeValid[0], dec.InAddr)
	}
	anyErr := m.OrBit(alarmCorr, alarmUncorr)
	errAddr := m.RegEn("err_addr", pipeAddr, anyErr, 0)
	errSynd := m.RegEn("err_synd", dec.Syn, anyErr, 0)
	errCnt := m.NewReg("err_cnt", 4, 0)
	cntNext, _ := m.Inc(errCnt.Q)
	errCnt.SetD(cntNext)
	errCnt.SetEnable(m.AndBit(anyErr, m.NotBit(m.EqConst(errCnt.Q, 15))))
	m.PopBlock()

	// ---- BIST result compare (needs decoded read data). ----
	alarmBIST := m.Low()
	if cfg.BIST {
		m.PushBlock("BIST")
		// The memory must be error-free at start-up: the decoder masking
		// a stuck cell (single-error correction) is still a BIST failure,
		// so any error indication during the compare window fails too.
		wrong := m.OrBit(m.Ne(dec.Data, bistExpect), m.OrBit(dec.Single, dec.Double))
		mismatch := m.AndBit(bistCompare, m.AndBit(pipeValid[0], wrong))
		fail := m.NewReg("bist_fail", 1, 0)
		fail.SetD(rtl.Bus{m.OrBit(fail.Q[0], mismatch)})
		alarmBIST = fail.Q[0]
		m.PopBlock()
	}

	// ---- Primary outputs. Alarms are registered in ERRCTRL so every
	// alarm pulse is observable for a full cycle at the pins. ----
	m.Output("rdata", dec.Data)
	m.Output("ack", rtl.Bus{pipeValid[0]})
	m.Output("ready", rtl.Bus{ready})
	// Error-log readouts are diagnostic observation points.
	m.Output("alarm_log_addr", errAddr)
	m.Output("alarm_log_synd", errSynd)
	m.Output("alarm_log_count", errCnt.Q)
	alarmOut := func(port string, sig netlist.NetID) {
		m.PushBlock("F_MEM/ERRCTRL")
		q := m.RegNext(port+"_q", rtl.Bus{sig}, 0)
		m.PopBlock()
		m.Output(port, q)
	}
	alarmOut("alarm_corr", alarmCorr)
	alarmOut("alarm_uncorr", alarmUncorr)
	if cfg.MPU {
		alarmOut("alarm_mpu", alarmMPU)
	}
	if cfg.WBufParity {
		alarmOut("alarm_wbuf", alarmWBuf)
	}
	if cfg.CoderCheck {
		alarmOut("alarm_coder", alarmCoder)
	}
	if cfg.RedundantChecker {
		alarmOut("alarm_dec", alarmDec)
	}
	if cfg.DistributedSyndrome {
		alarmOut("alarm_addr", alarmAddr)
	}
	if cfg.Scrubber {
		alarmOut("alarm_scrub", alarmScrub)
	}
	if cfg.BIST {
		alarmOut("alarm_bist", alarmBIST)
	}

	n, err := m.Finish()
	if err != nil {
		return nil, err
	}
	d.N = n
	d.memAddr = memAddr
	d.memWData = memWData
	d.memWE = memWE
	d.memRE = memRE
	d.memRData = memRData
	return d, nil
}

// AlarmPorts lists the diagnostic output ports of the design.
func (d *Design) AlarmPorts() []string {
	var out []string
	for _, p := range d.N.Outputs {
		if len(p.Name) >= 5 && p.Name[:5] == "alarm" {
			out = append(out, p.Name)
		}
	}
	return out
}
