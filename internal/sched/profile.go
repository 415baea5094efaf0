package sched

import (
	"fmt"
	"math"
	"sort"
)

// profile is a step function of free node counts over future time, used
// by conservative backfilling to place every queued job tentatively. It
// supports finding the earliest slot where n nodes are free for a
// duration and reserving that slot.
type profile struct {
	// times are the step boundaries, strictly increasing; free[i] is the
	// free node count over [times[i], times[i+1]) and the last entry
	// extends to infinity.
	times []float64
	free  []int
}

// reset re-initializes p to a single segment [now, ∞) with freeNow free
// nodes, reusing the backing arrays. The conservative-backfill pass
// keeps one pooled profile per scheduler and resets it every pass, so
// steady-state passes allocate nothing once the arrays have grown to the
// workload's high-water segment count.
func (p *profile) reset(now float64, freeNow int) {
	p.times = append(p.times[:0], now)
	p.free = append(p.free[:0], freeNow)
}

// addAt adds delta free nodes from time t onward.
func (p *profile) addAt(t float64, delta int) {
	i := p.splitAt(t)
	for ; i < len(p.free); i++ {
		p.free[i] += delta
	}
}

// splitAt ensures a step boundary exists at t and returns its index.
func (p *profile) splitAt(t float64) int {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	// t falls inside segment i-1; split it.
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.free[i+1:], p.free[i:])
	p.times[i] = t
	p.free[i] = p.free[i-1]
	return i
}

// findSlot returns the earliest time >= earliest at which n nodes are
// free continuously for duration d.
func (p *profile) findSlot(n int, d, earliest float64) float64 {
	if len(p.times) == 0 {
		return earliest
	}
	start := earliest
	if start < p.times[0] {
		start = p.times[0]
	}
	for {
		i := p.segmentAt(start)
		// Check [start, start+d): every overlapped segment needs >= n.
		ok := true
		for j := i; j < len(p.free); j++ {
			if p.times[j] >= start+d {
				break
			}
			if p.free[j] < n {
				ok = false
				// Restart after this deficient segment.
				if j+1 < len(p.times) {
					start = p.times[j+1]
				} else {
					// The final (infinite) segment lacks capacity: the
					// job can never fit.
					return math.Inf(1)
				}
				break
			}
		}
		if ok {
			return start
		}
	}
}

// segmentAt returns the index of the segment containing time t (t must
// be >= times[0]).
func (p *profile) segmentAt(t float64) int {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	if i == 0 {
		panic(fmt.Sprintf("sched: profile query before origin: %v < %v", t, p.times[0]))
	}
	return i - 1
}

// reserve subtracts n nodes over [t, t+d).
func (p *profile) reserve(t, d float64, n int) {
	if math.IsInf(t, 1) {
		return // unplaceable job: nothing to subtract
	}
	start := p.splitAt(t)
	var end int
	if math.IsInf(d, 1) {
		end = len(p.free)
	} else {
		end = p.splitAt(t + d)
	}
	for i := start; i < end; i++ {
		p.free[i] -= n
		if p.free[i] < 0 {
			panic(fmt.Sprintf("sched: profile over-reserved at t=%v: %d free", p.times[i], p.free[i]))
		}
	}
}
