package telemetry

import "math"

// tickFold is the aggregate of one tick's rows across a scope's nodes,
// and with startAggregates, mergeInto and finishAggregates the only
// place a window's min/mean/max is computed. The mean is a two-level
// fold — rows summed node-major within a tick, tick sums added in tick
// order — and every feature vector's bits depend on that order. Min and
// max fold the same way; with strict comparisons the first of several
// equal extremes wins at both levels.
// Like a sample row, a fold's entry j is counter Sampler.cols[j]; only
// mergeInto and finishAggregates map positions back to counters.
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
// max over into the next tick. Sampler.aggregateInto, which merges every
// tick as it goes, steps with it: merging a running extreme gives what
// merging each tick's own would, and an extreme that has seen the whole
// window so far is rarely beaten, which keeps the two compares in add
// well predicted.
func (f *tickFold) nextTick() {
	f.sum = [NumCounters]float64{}
	f.missing = [NumCounters]int32{}
	f.rows = 0
}

// add folds one row in: vals[j] is the row's value of the counter at
// position j. mayMiss says whether vals can hold NaN (see
// Sampler.mayMiss); a healthy stream skips the test. The loop is written
// out twice because it is the sampler's hottest: with the flag tested
// inside one loop it ran about a quarter slower.
func (f *tickFold) add(vals []float64, mayMiss bool) {
	f.rows++
	min, max, sum := f.min[:len(vals)], f.max[:len(vals)], f.sum[:len(vals)]
	if !mayMiss {
		for j, v := range vals {
			if v < min[j] {
				min[j] = v
			}
			if v > max[j] {
				max[j] = v
			}
			sum[j] += v
		}
		return
	}
	for j, v := range vals {
		if math.IsNaN(v) {
			f.missing[j]++
			continue
		}
		if v < min[j] {
			min[j] = v
		}
		if v > max[j] {
			max[j] = v
		}
		sum[j] += v
	}
}

// startAggregates sizes out to the schema and sets the counters in cols
// to the empty window, the others to 0; the caller's sample counts start
// at zero.
func startAggregates(out *Aggregates, cols []uint8) {
	out.Min = resizeFloats(out.Min, NumCounters)
	out.Mean = resizeFloats(out.Mean, NumCounters)
	out.Max = resizeFloats(out.Max, NumCounters)
	clear(out.Min)
	clear(out.Mean)
	clear(out.Max)
	for _, ci := range cols {
		out.Min[ci], out.Max[ci] = math.Inf(1), math.Inf(-1)
	}
}

// mergeInto folds one tick into a window started by startAggregates
// with the same cols; ticks must be merged in ascending order. Mean holds
// the running sum until finishAggregates divides it.
func (f *tickFold) mergeInto(out *Aggregates, counts *[NumCounters]int, cols []uint8) {
	min, mean, max := (*[NumCounters]float64)(out.Min), (*[NumCounters]float64)(out.Mean), (*[NumCounters]float64)(out.Max)
	for j, ci := range cols {
		n := f.rows - f.missing[j]
		if n == 0 {
			continue
		}
		if f.min[j] < min[ci] {
			min[ci] = f.min[j]
		}
		if f.max[j] > max[ci] {
			max[ci] = f.max[j]
		}
		mean[ci] += f.sum[j]
		counts[j] += int(n)
	}
}

// finishAggregates turns the running sums into means. A counter with no
// sample at all — every one was dropped, or the scope was empty of ticks
// — is missing, not zero: NaN in all three aggregates.
func finishAggregates(out *Aggregates, counts *[NumCounters]int, cols []uint8) {
	for j, ci := range cols {
		if n := counts[j]; n == 0 {
			out.Min[ci], out.Mean[ci], out.Max[ci] = math.NaN(), math.NaN(), math.NaN()
		} else {
			out.Mean[ci] /= float64(n)
		}
	}
}
