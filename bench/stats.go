package main

import (
	"math"
	"sort"
)

// Stat is one reported metric: the median of its K per-segment (or
// per-pass, per-repetition) values, their min–max range, their
// quartiles, and the number of raw samples behind them.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	K     int     `json:"k"`
	N     int     `json:"n"`
}

// spread estimates the run-to-run spread of Value as a share of it:
// the quartile distance of the K values, over the square root of K
// because Value is their median.
func (s Stat) spread() float64 {
	if s.K < 2 || s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Sqrt(float64(s.K)) / math.Abs(s.Value)
}

// statOf summarizes segment values; n is the raw sample count.
func statOf(unit string, n int, vals ...float64) Stat {
	if len(vals) == 0 {
		return Stat{Unit: unit}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Stat{Value: median(s), Unit: unit, Lo: s[0], Hi: s[len(s)-1],
		Q1: quantile(s, 1), Q3: quantile(s, 3), K: len(s), N: n}
}

// exact is a Stat for a value that has no spread: a count, a ratio of
// counts, or a number the simulator computes.
func exact(unit string, v float64) Stat {
	return Stat{Value: v, Unit: unit, Lo: v, Hi: v, Q1: v, Q3: v, K: 1, N: 1}
}

// quantile is the k-th quartile of a sorted slice, by the rule of
// Python's statistics.quantiles(values, n=4), which the benchmark
// driver measures spread with.
func quantile(sorted []float64, k int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := float64(k*(n+1)) / 4
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// rank is the nearest-rank percentile of a sorted slice, the same rule
// obs.Diagnose applies to span durations.
func rank(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// geomean of the positive entries of vals (0 when there are none).
func geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
