package telemetry

import (
	"rush/internal/cluster"
	"rush/internal/simnet"
)

// WindowTicks is the number of aligned sample ticks in the standard
// aggregation window.
const WindowTicks = int(WindowSeconds / SamplePeriod)

// WindowAgg incrementally aggregates the standard five-minute window over
// a fixed node scope. It keeps per-tick partial aggregates (one tickFold
// each) in a ring keyed by tick index, so advancing the window end by Δ
// ticks recomputes only the Δ new ticks; the rest combine from cached
// partials. Combined results are bit-identical to Sampler.AggregateWindow
// over the same scope: both run the one fold in fold.go.
//
// A WindowAgg is bound to one sampler, one history, and one node scope;
// it inherits the sampler-wide contract that queried windows end at or
// before the current simulated instant. It is not safe for concurrent
// use, matching the sampler itself.
type WindowAgg struct {
	s        *Sampler
	hist     *simnet.History
	nodes    []cluster.NodeID
	gen      uint64 // row-store generation the cached partials were folded from
	partials []tickPartial
	sliceBuf []simnet.Slice
}

// tickPartial is the aggregate of one tick across the scope's nodes.
// minEffT is the earliest effective sample instant among the scope's
// rows at this tick: the partial is only reusable for windows whose start
// does not exceed it (frozen rows older than the window start are
// window-clamped and must be recomputed, mirroring Sampler.fill).
type tickPartial struct {
	tick    int64
	minEffT float64
	set     bool
	tickFold
}

// NewWindowAgg returns a sliding aggregator over the given scope (capped
// to maxScopeNodes exactly like direct aggregation; the capped scope is
// copied, so the caller may reuse nodes).
func (s *Sampler) NewWindowAgg(hist *simnet.History, nodes []cluster.NodeID) *WindowAgg {
	return &WindowAgg{
		s:        s,
		hist:     hist,
		nodes:    append([]cluster.NodeID(nil), capNodes(nodes)...),
		gen:      s.store.gen,
		partials: make([]tickPartial, ringTicks),
	}
}

// Aggregate is AggregateInto returning a fresh Aggregates value.
func (w *WindowAgg) Aggregate(t1 float64) Aggregates {
	var out Aggregates
	w.AggregateInto(t1, &out)
	return out
}

// AggregateInto computes min/mean/max of every counter over the window
// [t1-WindowSeconds, t1) across the aggregator's scope, writing into out
// (reusing its slices). Steady-state calls perform no heap allocations.
// It empties the sampler's window memo, since it writes the store.
func (w *WindowAgg) AggregateInto(t1 float64, out *Aggregates) {
	s := w.s
	s.stats.Windows++
	s.memo.reset()
	t0 := t1 - WindowSeconds
	var (
		counts [NumCounters]int
		ticks  [ringTicks]tickLoad
	)
	startAggregates(out, s.cols)
	if len(w.nodes) == 0 {
		return
	}
	first, last := tickBounds(t0, t1)
	if last < first || last-first >= ringTicks {
		// A window of no whole tick, or of more than the ring holds,
		// which the standard window spans only at times too large for
		// float64 to step by 15 s (3e18 s makes 33 ticks): the direct
		// path takes any length.
		s.aggregateInto(w.hist, w.nodes, t0, t1, out)
		return
	}
	s.bind(w.hist)
	if w.gen != s.store.gen {
		// The store was flushed under us (a new fault model or counter
		// mask): every cached partial is stale.
		for i := range w.partials {
			w.partials[i].set = false
		}
		w.gen = s.store.gen
	}
	// The window's ticks, and of them the ones whose partial is stale,
	// which fill and fold anew: WindowTicks ticks, or one more by float
	// rounding at its edges.
	w.sliceBuf = w.hist.WindowInto(t0, t1, w.sliceBuf[:0])
	all := ticks[:last-first+1]
	windowTicks(w.sliceBuf, t0, first, all)
	stale := 0 // the stale ticks move to the front of ticks, in place
	for _, tk := range all {
		if p := w.partial(tk.tick); !p.set || p.tick != tk.tick || p.minEffT < t0 {
			ticks[stale] = tk
			stale++
		}
	}
	s.fill(w.sliceBuf, w.nodes, t0, ticks[:stale])
	mayMiss := s.mayMiss()
	for k := range ticks[:stale] {
		tk := &ticks[k]
		p := w.partial(tk.tick)
		p.tick, p.set, p.minEffT = tk.tick, true, tk.t
		p.reset()
		for _, node := range w.nodes {
			vals, effT := s.row(w.sliceBuf, node, tk, true)
			p.minEffT = min(p.minEffT, effT)
			p.add(vals, mayMiss)
		}
	}
	for tick := first; tick <= last; tick++ {
		w.partial(tick).mergeInto(out, &counts, s.cols)
	}
	finishAggregates(out, &counts, s.cols)
}

// partial returns tick's slot of the partials ring.
func (w *WindowAgg) partial(tick int64) *tickPartial {
	return &w.partials[ringPos(tick)]
}
