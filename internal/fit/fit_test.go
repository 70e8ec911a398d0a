package fit

import (
	"math"
	"testing"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDefaultSane(t *testing.T) {
	r := Default()
	if r.MemBitTransient <= r.MemBitPermanent {
		t.Error("memory transients should dominate permanents")
	}
	if r.LatchingFraction <= 0 || r.LatchingFraction > 1 {
		t.Errorf("latching fraction %v out of (0,1]", r.LatchingFraction)
	}
	if r.FFTransient <= 0 || r.GatePermanent <= 0 {
		t.Error("rates must be positive")
	}
}

func TestLogicConeAndMemory(t *testing.T) {
	r := Default()
	lc := r.LogicCone(100)
	if !close(lc.Permanent, 100*r.GatePermanent) {
		t.Error("LogicCone permanent wrong")
	}
	mem := r.MemoryArray(1024)
	if !close(mem.Transient, 1024*r.MemBitTransient) {
		t.Error("MemoryArray transient wrong")
	}
}

// TestContributionTotal checks that a contribution's total is the sum
// of its transient and permanent parts, so a memory array's total is
// linear in its bit count.
func TestContributionTotal(t *testing.T) {
	r := Default()
	c := Contribution{Transient: 1.5, Permanent: 0.25}
	if !close(c.Total(), 1.75) {
		t.Errorf("Total = %v, want 1.75", c.Total())
	}
	one := r.MemoryArray(1)
	if !close(one.Total(), r.MemBitTransient+r.MemBitPermanent) {
		t.Errorf("one-bit total = %v", one.Total())
	}
	if got := r.MemoryArray(4096).Total(); math.Abs(got-4096*one.Total()) > 1e-9 {
		t.Errorf("4096-bit total = %v, want %v", got, 4096*one.Total())
	}
}
