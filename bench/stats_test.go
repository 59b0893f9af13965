package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns for the same inputs: the rule the PR driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	// q1 = 2.75, q3 = 8.25, median 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A timing is reported at the highest percentile that still has at
// least ten samples beyond it.
func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
		ok  bool
	}{
		{0, 0, false}, {19, 0, false},
		{20, 50, true}, {39, 50, true},
		{40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true}, {100000, 99.99, true},
	} {
		pct, ok := tailLevel(c.n)
		if pct != c.pct || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, pct, ok, c.pct, c.ok)
		}
	}
}

func TestTailAndPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if val, pct := tail(v); pct != 90 || val != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", val, pct)
	}
	// Too few samples for any level: the maximum, flagged as level 100.
	if val, pct := tail([]float64{3, 9, 4}); pct != 100 || val != 9 {
		t.Errorf("tail of 3 samples = %v at p%v, want 9 at p100", val, pct)
	}
}
