// Package stats provides the small set of descriptive statistics the RUSH
// pipeline needs: means, sample standard deviations, quantiles, z-scores
// and per-sample summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation (n-1 denominator) of xs, or
// NaN when fewer than two values are given.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for an empty
// slice and panics on an out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile out of range: %v", q))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// ZScore returns (x - mean) / std. A zero or non-finite std yields 0 so
// that degenerate per-application distributions never mark variation.
func ZScore(x, mean, std float64) float64 {
	if std <= 0 || math.IsNaN(std) || math.IsInf(std, 0) {
		return 0
	}
	return (x - mean) / std
}

// Summary holds the descriptive statistics the experiment harness reports
// for a set of run times.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P25    float64
	P75    float64
}

// Summarize computes a Summary of xs. For an empty slice all fields are
// NaN except N.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Mean, s.Std, s.Min, s.Max, s.Median, s.P25, s.P75 = nan, nan, nan, nan, nan, nan, nan
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Mean = Mean(xs)
	s.Std = Std(xs)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = quantileSorted(sorted, 0.5)
	s.P25 = quantileSorted(sorted, 0.25)
	s.P75 = quantileSorted(sorted, 0.75)
	return s
}
