package main

import (
	"math"
	"sort"

	"rush/internal/stats"
)

// bestDecile is the harness's timing estimator: the mean of the fastest
// ceil(n/10) samples. On a shared two-vCPU host a neighbour on the
// sibling core slows individual repetitions by up to a quarter; the
// fastest tenth of many repetitions of one deterministic unit is the
// part of the distribution the neighbour did not touch, and repeats to
// a few per cent where a median repeats to ten and a single timing to
// twenty-five (see README.md, "Measured noise"). It returns NaN for no
// samples. samples is not modified.
func bestDecile(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := (len(s) + 9) / 10
	var sum float64
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// repSpread is (median - best decile) / best decile: how far the typical
// repetition sat above the undisturbed ones. Above disturbedSpread the
// run shared its core with something else for most of its length and
// its timing should be read with that in mind.
func repSpread(samples []float64) float64 {
	best := bestDecile(samples)
	return (stats.Median(samples) - best) / best
}

const disturbedSpread = 0.15
