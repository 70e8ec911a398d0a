package inject

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// Checkpoint file format (version 1, little-endian):
//
//	[8]byte  magic "FMEACKPT"
//	u16      version
//	u64      plan hash (FNV-1a over the canonical injection encodings)
//	u32      plan length
//	u32      result-record count
//	u32      quarantine-record count
//	u32      CRC32 (IEEE) of everything above
//	result records, strictly increasing plan index:
//	  body = u32 index · injection · u8 outcome · u8 sens ·
//	         i32 firstDevCycle · u32 n · n×i32 deviated
//	  u32 CRC32 of body
//	quarantine records, strictly increasing plan index:
//	  body = u32 index · injection · u32 attempts · u32 len · error bytes
//	  u32 CRC32 of body
//
// Every byte is covered by a checksum or validated against the plan
// (magic, version, plan hash/length, per-record injection equality),
// so truncation or corruption anywhere fails decoding with a
// *CheckpointError — never a panic, never a silent wrong resume. The
// encoding is canonical: DecodeCheckpoint accepts exactly the bytes
// EncodeCheckpoint produces for the same state.

const (
	checkpointMagic   = "FMEACKPT"
	checkpointVersion = 1
	// maxErrLen caps a quarantine record's error string on decode so a
	// corrupt length field cannot drive a huge allocation.
	maxErrLen = 1 << 20
)

// CheckpointError is the versioned-format error for unreadable,
// corrupt or mismatched checkpoint files.
type CheckpointError struct {
	// Version is the format version found in the file (0 when the
	// header itself was unreadable).
	Version int
	Reason  string
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("inject: checkpoint format v%d: %s", e.Version, e.Reason)
}

// IndexedResult pairs a completed experiment result with its plan
// position.
type IndexedResult struct {
	PlanIndex int
	Result    ExpResult
}

// Checkpoint is the deserialized completed-result state of a campaign:
// per-index verdicts plus the quarantine section, both sorted by plan
// index.
type Checkpoint struct {
	Results     []IndexedResult
	Quarantined []Quarantined
}

// PlanHash fingerprints an injection plan. Resuming validates the
// stored hash against the live plan, so a checkpoint taken with a
// different seed, design or plan shape is rejected up front.
func PlanHash(plan []Injection) uint64 {
	h := fnv.New64a()
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(plan)))
	h.Write(n[:])
	var buf []byte
	for i := range plan {
		buf = appendInjection(buf[:0], &plan[i])
		h.Write(buf)
	}
	return h.Sum64()
}

// Codec is the checkpoint codec of one plan: the plan with its
// fingerprint, hashed once. Hashing is O(plan), so whoever encodes or
// decodes more than once per plan — a worker returning a result per
// lease, the coordinator validating every one of them — holds a Codec
// rather than calling EncodeCheckpoint/DecodeCheckpoint. The plan must
// not be modified while a Codec built from it is in use.
type Codec struct {
	plan []Injection
	hash uint64
}

// NewCodec fingerprints the plan.
func NewCodec(plan []Injection) Codec { return Codec{plan: plan, hash: PlanHash(plan)} }

// PlanHash is the fingerprint NewCodec computed.
func (c Codec) PlanHash() uint64 { return c.hash }

// ---------- encoding ----------

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int) []byte    { return appendU32(b, uint32(int32(v))) }

func appendInjection(b []byte, inj *Injection) []byte {
	b = appendI32(b, inj.Zone)
	b = append(b, byte(inj.Fault.Kind), byte(inj.Fault.Site))
	b = appendI32(b, int(inj.Fault.Net))
	b = appendI32(b, int(inj.Fault.Net2))
	b = appendI32(b, int(inj.Fault.Gate))
	b = appendI32(b, inj.Fault.Pin)
	b = appendI32(b, int(inj.Fault.FF))
	b = appendI32(b, inj.Cycle)
	b = appendI32(b, inj.Duration)
	b = append(b, byte(inj.Class))
	b = appendU16(b, uint16(len(inj.Mode)))
	return append(b, inj.Mode...)
}

// appendRecord seals one record body with its CRC.
func appendRecord(b, body []byte) []byte {
	b = append(b, body...)
	return appendU32(b, crc32.ChecksumIEEE(body))
}

// EncodeCheckpoint serializes campaign state against its plan. Records
// are emitted in canonical order (sorted by plan index), so the same
// state always yields the same bytes.
func EncodeCheckpoint(ck *Checkpoint, plan []Injection) []byte { return NewCodec(plan).Encode(ck) }

// Encode is EncodeCheckpoint against the codec's plan.
func (c Codec) Encode(ck *Checkpoint) []byte {
	results := append([]IndexedResult(nil), ck.Results...)
	sort.Slice(results, func(i, j int) bool { return results[i].PlanIndex < results[j].PlanIndex }) //det:order PlanIndex unique per result
	quar := append([]Quarantined(nil), ck.Quarantined...)
	sort.Slice(quar, func(i, j int) bool { return quar[i].PlanIndex < quar[j].PlanIndex }) //det:order PlanIndex unique per quarantine entry

	b := append([]byte(nil), checkpointMagic...)
	b = appendU16(b, checkpointVersion)
	b = appendU64(b, c.hash)
	b = appendU32(b, uint32(len(c.plan)))
	b = appendU32(b, uint32(len(results)))
	b = appendU32(b, uint32(len(quar)))
	b = appendU32(b, crc32.ChecksumIEEE(b))

	for i := range results {
		r := &results[i]
		body := appendI32(nil, r.PlanIndex)
		body = appendInjection(body, &r.Result.Injection)
		body = append(body, byte(r.Result.Outcome), boolByte(r.Result.Sens))
		body = appendI32(body, r.Result.FirstDevCycle)
		body = appendU32(body, uint32(len(r.Result.Deviated)))
		for _, oi := range r.Result.Deviated {
			body = appendI32(body, oi)
		}
		b = appendRecord(b, body)
	}
	for i := range quar {
		q := &quar[i]
		body := appendI32(nil, q.PlanIndex)
		body = appendInjection(body, &q.Injection)
		body = appendU32(body, uint32(q.Attempts))
		body = appendU32(body, uint32(len(q.Err)))
		body = append(body, q.Err...)
		b = appendRecord(b, body)
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// write atomically persists campaign state: the encoding is written to
// a temp file in the same directory and renamed over the destination,
// so a crash at any instant leaves a complete checkpoint (the previous
// or the new one) on disk.
func (c Codec) write(path string, ck *Checkpoint) error {
	data := c.Encode(ck)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("inject: checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("inject: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("inject: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("inject: checkpoint: %w", err)
	}
	return nil
}

// load reads and validates a checkpoint file against the codec's plan.
func (c Codec) load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return c.Decode(data)
}

// ---------- decoding ----------

// ckReader is a bounds-checked cursor over the checkpoint bytes; any
// overrun latches the short flag instead of panicking.
type ckReader struct {
	b     []byte
	off   int
	short bool
}

func (r *ckReader) take(n int) []byte {
	if r.short || n < 0 || r.off+n > len(r.b) {
		r.short = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *ckReader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *ckReader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *ckReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *ckReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *ckReader) i32() int { return int(int32(r.u32())) }

func (r *ckReader) injection() Injection {
	var inj Injection
	inj.Zone = r.i32()
	inj.Fault.Kind = faults.Kind(r.u8())
	inj.Fault.Site = faults.SiteKind(r.u8())
	inj.Fault.Net = netlist.NetID(r.i32())
	inj.Fault.Net2 = netlist.NetID(r.i32())
	inj.Fault.Gate = netlist.GateID(r.i32())
	inj.Fault.Pin = r.i32()
	inj.Fault.FF = netlist.FFID(r.i32())
	inj.Cycle = r.i32()
	inj.Duration = r.i32()
	inj.Class = ExpClass(r.u8())
	inj.Mode = string(r.take(int(r.u16())))
	return inj
}

// DecodeCheckpoint parses and fully validates checkpoint bytes against
// the live plan. Any deviation — bad magic, unknown version, plan
// hash/length mismatch, truncation, checksum failure, out-of-order or
// duplicated indices, an injection that differs from the plan's,
// trailing bytes — yields a *CheckpointError.
func DecodeCheckpoint(data []byte, plan []Injection) (*Checkpoint, error) {
	return NewCodec(plan).Decode(data)
}

// Decode is DecodeCheckpoint against the codec's plan; the stored plan
// hash is compared with the codec's, not with a recomputed one.
func (c Codec) Decode(data []byte) (*Checkpoint, error) {
	plan := c.plan
	fail := func(version int, format string, args ...any) (*Checkpoint, error) {
		return nil, &CheckpointError{Version: version, Reason: fmt.Sprintf(format, args...)}
	}
	r := &ckReader{b: data}
	if string(r.take(len(checkpointMagic))) != checkpointMagic {
		return fail(0, "bad magic (not a campaign checkpoint)")
	}
	version := int(r.u16())
	if r.short {
		return fail(0, "truncated header")
	}
	if version != checkpointVersion {
		return fail(version, "unsupported version (this build reads v%d)", checkpointVersion)
	}
	planHash := r.u64()
	planLen := r.u32()
	nResults := r.u32()
	nQuar := r.u32()
	headerEnd := r.off
	headerCRC := r.u32()
	if r.short {
		return fail(version, "truncated header")
	}
	if crc32.ChecksumIEEE(data[:headerEnd]) != headerCRC {
		return fail(version, "header checksum mismatch")
	}
	if int(planLen) != len(plan) {
		return fail(version, "plan length mismatch: checkpoint has %d, campaign has %d", planLen, len(plan))
	}
	if planHash != c.hash {
		return fail(version, "plan hash mismatch: checkpoint was taken for a different plan/seed")
	}
	if int(nResults)+int(nQuar) > len(plan) {
		return fail(version, "record counts exceed the plan (%d results + %d quarantined > %d)", nResults, nQuar, len(plan))
	}

	seen := make([]bool, len(plan))
	readRecord := func(parse func(r *ckReader) (int, error)) error {
		bodyStart := r.off
		idx, err := parse(r)
		bodyEnd := r.off
		recCRC := r.u32()
		if r.short {
			return &CheckpointError{Version: version, Reason: "truncated record"}
		}
		if crc32.ChecksumIEEE(data[bodyStart:bodyEnd]) != recCRC {
			return &CheckpointError{Version: version, Reason: "record checksum mismatch"}
		}
		if err != nil {
			return err
		}
		if idx < 0 || idx >= len(plan) {
			return &CheckpointError{Version: version, Reason: fmt.Sprintf("plan index %d out of range", idx)}
		}
		if seen[idx] {
			return &CheckpointError{Version: version, Reason: fmt.Sprintf("plan index %d recorded twice", idx)}
		}
		seen[idx] = true
		return nil
	}

	ck := &Checkpoint{}
	lastIdx := -1
	for i := 0; i < int(nResults); i++ {
		err := readRecord(func(r *ckReader) (int, error) {
			var ir IndexedResult
			ir.PlanIndex = r.i32()
			ir.Result.Injection = r.injection()
			outcome := r.u8()
			sens := r.u8()
			if !r.short && (outcome > byte(Aborted) || sens > 1) {
				return ir.PlanIndex, &CheckpointError{Version: version, Reason: "non-canonical outcome encoding"}
			}
			ir.Result.Outcome = Outcome(outcome)
			ir.Result.Sens = sens == 1
			ir.Result.FirstDevCycle = r.i32()
			n := r.u32()
			if int(n) > len(r.b)-r.off {
				r.short = true
				return ir.PlanIndex, nil
			}
			for k := 0; k < int(n); k++ {
				ir.Result.Deviated = append(ir.Result.Deviated, r.i32())
			}
			if r.short {
				return ir.PlanIndex, nil
			}
			if ir.PlanIndex <= lastIdx {
				return ir.PlanIndex, &CheckpointError{Version: version, Reason: "result records out of order"}
			}
			lastIdx = ir.PlanIndex
			if ir.PlanIndex >= 0 && ir.PlanIndex < len(plan) && ir.Result.Injection != plan[ir.PlanIndex] {
				return ir.PlanIndex, &CheckpointError{
					Version: version,
					Reason:  fmt.Sprintf("record %d injection differs from the plan", ir.PlanIndex),
				}
			}
			ck.Results = append(ck.Results, ir)
			return ir.PlanIndex, nil
		})
		if err != nil {
			return nil, err
		}
	}
	lastIdx = -1
	for i := 0; i < int(nQuar); i++ {
		err := readRecord(func(r *ckReader) (int, error) {
			var q Quarantined
			q.PlanIndex = r.i32()
			q.Injection = r.injection()
			q.Attempts = int(r.u32())
			errLen := r.u32()
			if errLen > maxErrLen {
				r.short = true
				return q.PlanIndex, nil
			}
			q.Err = string(r.take(int(errLen)))
			if r.short {
				return q.PlanIndex, nil
			}
			if q.PlanIndex <= lastIdx {
				return q.PlanIndex, &CheckpointError{Version: version, Reason: "quarantine records out of order"}
			}
			lastIdx = q.PlanIndex
			if q.PlanIndex >= 0 && q.PlanIndex < len(plan) && q.Injection != plan[q.PlanIndex] {
				return q.PlanIndex, &CheckpointError{
					Version: version,
					Reason:  fmt.Sprintf("quarantine record %d injection differs from the plan", q.PlanIndex),
				}
			}
			ck.Quarantined = append(ck.Quarantined, q)
			return q.PlanIndex, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if r.off != len(data) {
		return fail(version, "%d trailing bytes after the last record", len(data)-r.off)
	}
	return ck, nil
}
