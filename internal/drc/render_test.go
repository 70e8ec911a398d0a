package drc

import (
	"strings"
	"testing"
)

// TestLocString pins the compact location path: set fields in fixed
// order, the row only when positive, and "-" for an empty location.
func TestLocString(t *testing.T) {
	for _, tc := range []struct {
		loc  Loc
		want string
	}{
		{Loc{}, "-"},
		{Loc{Net: "a"}, "net:a"},
		{Loc{Block: "CORE", Gate: "g3(AND)", Row: 2}, "block:CORE gate:g3(AND) row:2"},
		{Loc{FF: "r[0]", Zone: "Z1", Obs: "dout"}, "ff:r[0] zone:Z1 obs:dout"},
	} {
		if got := tc.loc.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.loc, got, tc.want)
		}
	}
}

// TestLayerAndSeverityStrings pins the names the rule catalog and the
// JSON severity field print.
func TestLayerAndSeverityStrings(t *testing.T) {
	for l, want := range map[Layer]string{LayerNetlist: "netlist", LayerZones: "zones", LayerWorksheet: "worksheet"} {
		if got := l.String(); got != want {
			t.Errorf("Layer(%d) = %q, want %q", l, got, want)
		}
	}
	for s, want := range map[Severity]string{Info: "info", Warning: "warn", Error: "error", Severity(7): "Severity(7)"} {
		if got := s.String(); got != want {
			t.Errorf("Severity(%d) = %q, want %q", s, got, want)
		}
	}
}

// TestCountAtLeastAndSummary checks the threshold tally the exit code
// uses against the per-severity counts the summary line prints.
func TestCountAtLeastAndSummary(t *testing.T) {
	r := &Result{
		Design:   "d",
		Findings: []Finding{{Severity: Info}, {Severity: Warning}, {Severity: Warning}, {Severity: Error}},
		Ran:      []string{"A", "B"},
		Skipped:  []string{"C"},
	}
	for sev, want := range map[Severity]int{Info: 4, Warning: 3, Error: 1} {
		if got := r.CountAtLeast(sev); got != want {
			t.Errorf("CountAtLeast(%v) = %d, want %d", sev, got, want)
		}
	}
	if got, want := r.Summary(), "1 error, 2 warn, 1 info (2 rules ran, 1 skipped)"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
	if r.Clean() {
		t.Error("a result with an error finding is not clean")
	}
}

// TestRenderCleanAndFindings renders a clean run and a run with a hinted
// finding: the header carries the summary, a clean run says so, and
// every hint is printed under its rule ID.
func TestRenderCleanAndFindings(t *testing.T) {
	res, err := Run(cleanTriple(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.HasPrefix(out, "DRC clean: "+res.Summary()+"\n") || !strings.HasSuffix(out, "no findings\n") {
		t.Errorf("clean render:\n%s", out)
	}

	r := &Result{
		Design: "d",
		Findings: []Finding{
			{Rule: "DRC-N001", Severity: Error, Loc: Loc{Net: "x"}, Message: "undriven", Hint: "drive it"},
			{Rule: "DRC-N005", Severity: Info, Message: "dead gate"},
		},
		Ran:     []string{"DRC-N001", "DRC-N005"},
		Skipped: []string{"DRC-W003"},
	}
	out = r.Render()
	for _, want := range []string{"skipped: DRC-W003\n", "net:x", "undriven", "dead gate", "\nhint [DRC-N001]: drive it\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "hint [DRC-N005]") {
		t.Errorf("hint printed for a finding without one:\n%s", out)
	}
}
