package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples within a run:
// p10, the median, the quartiles, p90 once it has ten samples beyond it, and
// the highest standard percentile that still has at least ten samples
// beyond it, each with the sample count it was computed from. p90 is
// the tail compared across runs: higher percentiles do not repeat
// within a tenth on a shared 2-core box.
type summary struct {
	N      int     `json:"n"`
	P10    float64 `json:"p10"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90,omitempty"`
	// TailPct is the tail percentile reported (0 when fewer than 20
	// samples leave no percentile with ten samples beyond it), TailN
	// the number of samples above it.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	TailN   int     `json:"tail_n,omitempty"`
}

// tailCandidates are the percentiles a tail may be reported at,
// highest first. p99 and above need 1000+ samples; p90 needs 100.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// summarize computes the summary of vals. vals is not modified.
func summarize(vals []float64) summary {
	s := summary{N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	s.P10, _ = nearestRank(d, 10)
	s.Median = median(d)
	s.Q1, s.Q3 = quartiles(d)
	if v, beyond := nearestRank(d, 90); beyond >= 10 {
		s.P90 = v
	}
	for _, p := range tailCandidates {
		v, beyond := nearestRank(d, p)
		if beyond >= 10 {
			s.TailPct, s.Tail, s.TailN = p, v, beyond
			break
		}
	}
	return s
}

// median of sorted d.
func median(d []float64) float64 {
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first and third quartile of sorted d by the
// "exclusive" method of Python's statistics.quantiles(d, n=4), the
// method the benchmark's spread rule is stated in. A single sample is
// its own quartiles.
func quartiles(d []float64) (q1, q3 float64) {
	ld := len(d)
	if ld == 1 {
		return d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// nearestRank returns the p-th percentile of sorted d by the nearest-rank
// definition (the smallest sample with at least p% of samples at or
// below it) and the number of samples beyond that rank.
func nearestRank(d []float64, p float64) (v float64, beyond int) {
	rank := int(math.Ceil(p*float64(len(d))/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000002
	rank = max(1, min(rank, len(d)))
	return d[rank-1], len(d) - rank
}
