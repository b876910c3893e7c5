package main

import (
	"math"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// high percentile; below it the percentile is a single sample's noise.
const minTail = 10

// median returns the middle of xs (mean of the two middles for an even
// count) and NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics, and NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail is the high-percentile summary of a sample: the value, the
// percentile it sits at, and the sample count behind it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

// highPercentile returns the highest percentile, capped at p99, that
// has at least minTail samples beyond it (nearest rank), so a p99 needs
// 1000 samples and a smaller sample reports a lower percentile instead
// of its maximum. ok is false when fewer than minTail+1 samples exist.
func highPercentile(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= minTail {
		return tail{N: n}, false
	}
	beyond := max(minTail, n/100)
	s := slices.Clone(xs)
	slices.Sort(s)
	return tail{
		Value:      s[n-1-beyond],
		Percentile: 100 * float64(n-beyond) / float64(n),
		N:          n,
	}, true
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs maps durations through a unit conversion.
func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
