package main

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestDirtyFixture pins the exact findings on the dirty fixture: each
// seeded pattern is caught once and none of the allowed forms leak.
func TestDirtyFixture(t *testing.T) {
	diags, err := lintDir(filepath.Join("testdata", "src", "dirty"), false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"12:det-timenow",
		"16:det-globalrand",
		"26:det-maprange",
		"49:det-timenow",    // bare //det:allow (no reason) suppresses nothing
		"53:det-globalrand", // likewise for the global generator
		"59:det-sortslice",  // single-field sort.Slice without tie-break
		"63:det-sortslice",  // sort.SliceStable is no safer when fed from a map
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Check))
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestCleanFixture asserts the allowed forms produce no findings.
func TestCleanFixture(t *testing.T) {
	diags, err := lintDir(filepath.Join("testdata", "src", "clean"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("clean fixture produced findings: %v", diags)
	}
}

// TestRepoPackages runs the analyzer over the packages CI's determinism
// lint step names, so tier-1 applies the same gate. internal/telemetry
// is in the set too: its only wall-clock read is the SystemClock seam,
// exempted by a reasoned //det:allow, so the package must otherwise lint
// clean. The repo root is two levels up from this package directory.
func TestRepoPackages(t *testing.T) {
	for _, pkg := range []string{
		"internal/fmea", "internal/inject", "internal/report", "internal/drc", "internal/telemetry",
		"internal/simc", "internal/statfault", "internal/dist", "cmd/tracer",
	} {
		diags, err := lintDir(filepath.Join("..", "..", filepath.FromSlash(pkg)), false)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		if len(diags) != 0 {
			t.Errorf("%s has determinism findings: %v", pkg, diags)
		}
	}
}
