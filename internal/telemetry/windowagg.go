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
	faults   FaultModel // fault model the cached partials were computed under
	drift    DriftModel // drift model ditto
	partials []tickPartial
	sliceBuf []simnet.Slice
}

// tickPartial is the aggregate of one tick across the scope's nodes.
// minEffT is the earliest effective sample instant among the scope's
// rows at this tick: the partial is only reusable for windows whose start
// does not exceed it (frozen rows older than the window start are
// window-clamped and must be recomputed, mirroring rowFor).
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
		faults:   s.faults,
		drift:    s.drift,
		partials: make([]tickPartial, WindowTicks),
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
func (w *WindowAgg) AggregateInto(t1 float64, out *Aggregates) {
	s := w.s
	t0 := t1 - WindowSeconds
	var counts [NumCounters]int
	startAggregates(out, &counts)
	if len(w.nodes) == 0 {
		return
	}
	if w.faults != s.faults || w.drift != s.drift {
		// The sampler's fault or drift model changed under us: every
		// cached partial is stale.
		for i := range w.partials {
			w.partials[i].set = false
		}
		w.faults = s.faults
		w.drift = s.drift
	}
	first, last := tickBounds(t0, t1)
	if last < first {
		// Sub-period window: delegate to the direct path's single-sample
		// fallback (never the case for the standard window).
		s.aggregateInto(w.hist, w.nodes, t0, t1, out, true)
		return
	}
	// The standard window spans exactly WindowTicks ticks, but guard
	// against float rounding at the window edges producing one more.
	if c := int(last - first + 1); c > len(w.partials) {
		w.partials = append(w.partials, make([]tickPartial, c-len(w.partials))...)
	}
	ring := int64(len(w.partials))
	s.store.bind(w.hist, s.topo)
	w.sliceBuf = w.hist.WindowInto(t0, t1, w.sliceBuf[:0])
	cursor := 0
	for tick := first; tick <= last; tick++ {
		p := &w.partials[int(((tick%ring)+ring)%ring)]
		if !p.set || p.tick != tick || p.minEffT < t0 {
			cursor = w.computePartial(tick, t0, cursor, p)
		}
		p.mergeInto(out, &counts)
	}
	finishAggregates(out, &counts)
}

// computePartial fills p with tick's node-major aggregate for a window
// starting at t0. Rows come from the sampler's shared row store, so a
// WindowAgg and direct aggregation queries feed each other's caches.
// cursor is the loadsAt index the previous (earlier) tick stopped at; the
// one this tick stopped at is returned.
func (w *WindowAgg) computePartial(tick int64, t0 float64, cursor int, p *tickPartial) int {
	s := w.s
	p.tick = tick
	p.set = true
	p.reset()
	tickT := float64(tick) * SamplePeriod
	cursor, tickNet, tickFS := loadsAt(w.sliceBuf, cursor, tickT)
	mayMiss := s.mayMiss()
	minEffT := tickT
	for _, node := range w.nodes {
		row := s.rowFor(w.sliceBuf, t0, tickT, tickNet, tickFS, node, tick)
		if row.effT < minEffT {
			minEffT = row.effT
		}
		p.add(&row.vals, mayMiss)
	}
	p.minEffT = minEffT
	return cursor
}
