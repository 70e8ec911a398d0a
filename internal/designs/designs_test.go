package designs

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
)

// TestCatalogue: every name builds, two builds of one name are the
// same design (equal zone summary, equal netlist bytes) and share
// nothing, and only rand comes without a DUT — and says so.
func TestCatalogue(t *testing.T) {
	fingerprint := func(d *Design) [sha256.Size]byte {
		t.Helper()
		var buf bytes.Buffer
		if err := d.N.WriteVerilog(&buf); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(buf.Bytes())
	}
	for _, e := range catalogue {
		var ds [2]*Design
		var summaries [2]string
		for i := range ds {
			d, err := Build(e.name, 6, 2, 3)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			a, err := d.Analyze()
			if err != nil {
				t.Fatalf("%s: analyze: %v", e.name, err)
			}
			ds[i], summaries[i] = d, a.Summary()
		}
		if ds[0].N == ds[1].N {
			t.Errorf("%s: two builds share one netlist", e.name)
		}
		if summaries[0] != summaries[1] || fingerprint(ds[0]) != fingerprint(ds[1]) {
			t.Errorf("%s: two builds differ", e.name)
		}

		dut, err := BuildDUT(e.name, 6, 2, 3)
		if (ds[0].DUT != nil) != e.hasDUT || (err == nil) != e.hasDUT || (CheckDUT(e.name) == nil) != e.hasDUT {
			t.Errorf("%s: hasDUT=%v but Build DUT=%v, BuildDUT err=%v, CheckDUT err=%v",
				e.name, e.hasDUT, ds[0].DUT, err, CheckDUT(e.name))
		}
		if e.hasDUT && dut.ValidationTrace().Cycles() == 0 {
			t.Errorf("%s: DUT has an empty validation workload", e.name)
		}
	}

	if err := CheckDUT("rand"); err == nil || !strings.Contains(err.Error(), "no DUT") ||
		strings.Contains(err.Error(), "or rand") {
		t.Errorf(`CheckDUT("rand") = %v, want a no-DUT error listing only designs with one`, err)
	}
	_, err := Build("nope", 6, 2, 3)
	if err == nil || !strings.Contains(err.Error(), Vocabulary(false)) {
		t.Errorf(`Build("nope") = %v, want an error listing %q`, err, Vocabulary(false))
	}
	if got, want := Vocabulary(false), "v1, v2, cpu, cpu-lockstep or rand"; got != want {
		t.Errorf("Vocabulary(false) = %q, want %q", got, want)
	}
	if got, want := Vocabulary(true), "v1, v2, cpu or cpu-lockstep"; got != want {
		t.Errorf("Vocabulary(true) = %q, want %q", got, want)
	}
}
