package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile expectations are what Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
	}
	for _, c := range cases {
		s := summarize(c.data)
		if !near(s.Q1, c.q1) || !near(s.Q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{2, 1}, 1.5},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := summarize(c.data).Median; got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

func seq(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	return d
}

// The tail is the highest candidate percentile leaving at least ten
// samples beyond it.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		pct     float64
		value   float64
		samples int
	}{
		{19, 0, 0, 0},       // p50 leaves only 9 beyond
		{20, 50, 10, 10},    // rank 10, 10 beyond
		{40, 75, 30, 10},    // rank 30
		{100, 90, 90, 10},   // rank 90
		{150, 90, 135, 15},  // p95 would leave 7
		{200, 95, 190, 10},  // rank 190
		{1000, 99, 990, 10}, // rank 990
		{10000, 99.9, 9990, 10},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.TailPct != c.pct || s.Tail != c.value || s.TailN != c.samples {
			t.Errorf("n=%d: tail p%v=%v (%d beyond), want p%v=%v (%d beyond)",
				c.n, s.TailPct, s.Tail, s.TailN, c.pct, c.value, c.samples)
		}
		if s.TailPct != 0 && s.TailN < 10 {
			t.Errorf("n=%d: tail with only %d samples beyond", c.n, s.TailN)
		}
		if wantP90 := map[bool]float64{true: float64((c.n*9 + 9) / 10), false: 0}[c.n >= 100]; s.P90 != wantP90 {
			t.Errorf("n=%d: p90 = %v, want %v", c.n, s.P90, wantP90)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := summarize(nil); s.N != 0 || s.Median != 0 || s.TailPct != 0 {
		t.Fatalf("summarize(nil) = %+v", s)
	}
}

// p10 is the nearest-rank 10th percentile: the smallest sample with at
// least a tenth of the samples at or below it.
func TestP10NearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1}, {9, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3}, {1000, 100}} {
		if got := summarize(seq(c.n)).P10; got != c.want {
			t.Errorf("n=%d: p10 = %v, want %v", c.n, got, c.want)
		}
	}
	if got := summarize([]float64{9, 3, 7, 1, 5, 8, 2, 6, 4, 10, 11}).P10; got != 2 {
		t.Errorf("p10 of 1..11 shuffled = %v, want 2", got)
	}
}
