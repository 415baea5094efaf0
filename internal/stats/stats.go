// Package stats provides the small set of descriptive statistics the RUSH
// pipeline needs: means, sample standard deviations, quantiles, z-scores,
// histograms, and streaming (Welford) accumulators.
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

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
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

// Online is a streaming mean/variance accumulator (Welford's algorithm).
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of values added.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or NaN if no values were added.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Std returns the running sample standard deviation, or NaN when fewer
// than two values were added.
func (o *Online) Std() float64 {
	if o.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(o.m2 / float64(o.n-1))
}

// Min returns the smallest value added, or NaN if none were.
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.min
}

// Max returns the largest value added, or NaN if none were.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.max
}
