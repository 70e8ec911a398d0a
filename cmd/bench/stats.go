package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile (0..1) of xs the way Python's
// statistics.quantiles(method="exclusive") does, which is how the
// driver computes quartiles: position q·(n+1) on the 1-based sorted
// sample, clamped to the ends. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q*float64(n+1) - 1 // 0-based
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure every bound is sized against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: fewer and the figure is one or two outliers.
const tailSamples = 10

// tailPercentile returns the p-quantile (0..1) of xs, or ok=false when
// fewer than tailSamples samples lie beyond it.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	if float64(len(xs))*(1-p)+1e-9 < tailSamples { // 100·(1−0.9) is 9.999… in floating point
		return 0, false
	}
	return quantile(xs, p), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
