package main

import (
	"math"
	"testing"
)

func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to check it sorts
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		want    float64 // value reported; the samples are 1..n
		wantPct float64
	}{
		{n: 11, want: 1, wantPct: 100 * 1.0 / 11},
		{n: 100, want: 90, wantPct: 90},
		{n: 500, want: 490, wantPct: 98},
		{n: 1000, want: 990, wantPct: 99},
		{n: 5000, want: 4950, wantPct: 99}, // capped at p99
	} {
		got, ok := highPercentile(seq(tc.n))
		if !ok {
			t.Fatalf("n=%d: no percentile", tc.n)
		}
		if got.Value != tc.want || math.Abs(got.Percentile-tc.wantPct) > 1e-9 || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v", tc.n, got, tc.want, tc.wantPct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, beyond)
		}
	}
	if _, ok := highPercentile(seq(10)); ok {
		t.Error("10 samples: want no percentile, none has 10 samples beyond it")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty: want NaN")
	}
	if got := quantile([]float64{40, 10, 30, 20, 50}, 0.25); got != 20 {
		t.Errorf("p25: got %v", got)
	}
	if got := quantile([]float64{1, 2}, 0.25); got != 1.25 {
		t.Errorf("interpolated p25: got %v", got)
	}
}

func TestTailCoversTheWholePhase(t *testing.T) {
	m := metricSet{}
	// 5000 samples: 0..999 five times, with a burst of 40 large values
	// in one stretch. Without the burst the p99 (50 samples beyond it)
	// is 989; the burst's 40 values push it up to 997.
	var xs []float64
	for rep := range 5 {
		for i := range 1000 {
			x := float64(i)
			if rep == 2 && i < 40 {
				x = 1e6
			}
			xs = append(xs, x)
		}
	}
	if err := m.setTail("lat", xs, "ms"); err != nil {
		t.Fatal(err)
	}
	got := m["lat"]
	if got.Value != 997 {
		t.Errorf("tail %v, want 997", got.Value)
	}
	if want := "p99.00, n=5000"; got.note != want {
		t.Errorf("note %q, want %q", got.note, want)
	}
	// A burst longer than the tail moves the reported value.
	for i := range 60 {
		xs[2000+i] = 1e6
	}
	if err := m.setTail("lat", xs, "ms"); err != nil {
		t.Fatal(err)
	}
	if got := m["lat"]; got.Value != 1e6 {
		t.Errorf("burst of 60 in 5000: tail %v, want 1e6", got.Value)
	}
	if err := m.setTail("one", xs[:500], "ms"); err != nil {
		t.Fatal(err)
	}
	if got := m["one"]; got.Value != 489 || got.note != "p98.00, n=500" {
		t.Errorf("500 samples: %+v", got)
	}
	if err := m.setTail("few", xs[:10], "ms"); err == nil {
		t.Error("10 samples: want an error, not a percentile")
	}
}
