package telemetry

import "math"

// tickFold is the aggregate of one tick's rows across a scope's nodes,
// and with startAggregates, mergeInto and finishAggregates the only
// place a window's min/mean/max is computed. The mean is a two-level
// fold — rows summed node-major within a tick, tick sums added in tick
// order — so that direct aggregation (Sampler.aggregateInto) and the
// sliding aggregator (WindowAgg), which keeps tick folds and re-merges
// them, give bit-identical results. Min and max fold the same way; with
// strict comparisons the first of several equal extremes wins at both
// levels, so they too do not depend on which path ran.
type tickFold struct {
	min, max, sum [NumCounters]float64
	missing       [NumCounters]int32 // rows whose sample was dropped (NaN)
	rows          int32              // rows folded
}

// reset empties the fold.
func (f *tickFold) reset() {
	for ci := range f.min {
		f.min[ci] = math.Inf(1)
		f.max[ci] = math.Inf(-1)
	}
	f.nextTick()
}

// nextTick empties the fold of its sums and counts but carries min and
// max over into the next tick. A caller that merges every tick as it goes
// and keeps none (Sampler.aggregateInto) steps with it: merging a running
// extreme gives what merging each tick's own would, and an extreme that
// has seen the whole window so far is rarely beaten, which keeps the two
// compares in add well predicted.
func (f *tickFold) nextTick() {
	f.sum = [NumCounters]float64{}
	f.missing = [NumCounters]int32{}
	f.rows = 0
}

// add folds one row in. mayMiss says whether vals can hold NaN (see
// Sampler.mayMiss); a healthy stream skips the test. The loop is written
// out twice because it is the sampler's hottest: with the flag tested
// inside one loop it ran about a quarter slower.
func (f *tickFold) add(vals *[NumCounters]float64, mayMiss bool) {
	f.rows++
	if !mayMiss {
		for ci, v := range vals {
			if v < f.min[ci] {
				f.min[ci] = v
			}
			if v > f.max[ci] {
				f.max[ci] = v
			}
			f.sum[ci] += v
		}
		return
	}
	for ci, v := range vals {
		if math.IsNaN(v) {
			f.missing[ci]++
			continue
		}
		if v < f.min[ci] {
			f.min[ci] = v
		}
		if v > f.max[ci] {
			f.max[ci] = v
		}
		f.sum[ci] += v
	}
}

// startAggregates sizes out to the schema and sets it, and the sample
// counts, to the empty window.
func startAggregates(out *Aggregates, counts *[NumCounters]int) {
	out.Min = resizeFloats(out.Min, NumCounters)
	out.Mean = resizeFloats(out.Mean, NumCounters)
	out.Max = resizeFloats(out.Max, NumCounters)
	for ci := range counts {
		out.Min[ci] = math.Inf(1)
		out.Mean[ci] = 0
		out.Max[ci] = math.Inf(-1)
		counts[ci] = 0
	}
}

// mergeInto folds one tick into a window started by startAggregates;
// ticks must be merged in ascending order. Mean holds the running sum
// until finishAggregates divides it.
func (f *tickFold) mergeInto(out *Aggregates, counts *[NumCounters]int) {
	min, mean, max := (*[NumCounters]float64)(out.Min), (*[NumCounters]float64)(out.Mean), (*[NumCounters]float64)(out.Max)
	for ci := range counts {
		n := f.rows - f.missing[ci]
		if n == 0 {
			continue
		}
		if f.min[ci] < min[ci] {
			min[ci] = f.min[ci]
		}
		if f.max[ci] > max[ci] {
			max[ci] = f.max[ci]
		}
		mean[ci] += f.sum[ci]
		counts[ci] += int(n)
	}
}

// finishAggregates turns the running sums into means. A counter with no
// sample at all — every one was dropped, or the scope was empty of ticks
// — is missing, not zero: NaN in all three aggregates.
func finishAggregates(out *Aggregates, counts *[NumCounters]int) {
	for ci, n := range counts {
		if n == 0 {
			out.Min[ci], out.Mean[ci], out.Max[ci] = math.NaN(), math.NaN(), math.NaN()
			continue
		}
		out.Mean[ci] /= float64(n)
	}
}
