package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/dist"
)

// digestsPath is where -update-digests writes, relative to the module
// root (where `go run ./cmd/bench` runs).
const digestsPath = "cmd/bench/testdata/digests.json"

//go:embed testdata/digests.json
var digestsJSON []byte

// pins maps an input key to the SHA-256 of the report those inputs
// must produce. Keys name inputs, not workloads: a served submission
// and a certify run of the same design and plan share one pin, because
// the product promises them the same bytes.
type pins struct {
	mu     sync.Mutex
	pinned map[string]string
	// seen collects every digest a run observed, keyed the same way:
	// the cross-op agreement check at unpinned seeds, and the source of
	// -update-digests.
	seen map[string]string
}

func loadPins() (*pins, error) {
	p := &pins{pinned: map[string]string{}, seen: map[string]string{}}
	if err := json.Unmarshal(digestsJSON, &p.pinned); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return p, nil
}

func digestOf(report []byte) string {
	s := sha256.Sum256(report)
	return hex.EncodeToString(s[:])
}

// assessKey names the inputs of one core.Run assessment report.
func assessKey(d designKnobs, wide int, seed uint64, targetSIL int) string {
	return fmt.Sprintf("assess:%s/a%d/w%d/t%d/p%d/g%d/s%d/sil%d",
		d.Design, d.AddrWidth, d.Words, d.Transient, d.Permanent, wide, seed, targetSIL)
}

// campaignKey names the inputs of one canonical campaign report
// (inject.Report.WriteText), the fleet's byte-identity surface.
func campaignKey(sp dist.Spec) string { return "campaign:" + sp.Key() }

// check compares a report against its pin, or — for inputs with no pin
// — against the first report the same inputs produced in this run. It
// returns whether the key was pinned and a non-nil error on mismatch.
func (p *pins) check(key string, report []byte) (pinned bool, err error) {
	got := digestOf(report)
	p.mu.Lock()
	defer p.mu.Unlock()
	if want, ok := p.pinned[key]; ok {
		p.seen[key] = got
		if got != want {
			return true, fmt.Errorf("%s: report sha256 %s, pinned %s", key, got[:16], want[:16])
		}
		return true, nil
	}
	if first, ok := p.seen[key]; ok && first != got {
		return false, fmt.Errorf("%s: report sha256 %s differs from this run's first %s", key, got[:16], first[:16])
	}
	p.seen[key] = got
	return false, nil
}

// write merges the digests seen into the pinned set and writes the file
// with sorted keys, one per line.
func (p *pins) write() error {
	for k, v := range p.seen {
		p.pinned[k] = v
	}
	keys := make([]string, 0, len(p.pinned))
	for k := range p.pinned {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, p.pinned[k], sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(digestsPath, []byte(b.String()), 0o644)
}
