package telemetry

import (
	"fmt"
	"math"
	"testing"

	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// testFaults is a pure-hash fault model for differential tests: whole
// tables drop with probability dropP, and nodes freeze for spans of
// freezeSpan ticks with probability freezeP per span.
type testFaults struct {
	src        *sim.Source
	dropP      float64
	freezeP    float64
	freezeSpan int64
}

func (f testFaults) Dropped(table string, node cluster.NodeID, tick int64) bool {
	return f.src.HashUnit(uint64(len(table)), uint64(table[0]), uint64(node)+13, uint64(tick)+101) < f.dropP
}

func (f testFaults) SampleTick(node cluster.NodeID, tick int64) int64 {
	if tick < 0 {
		return tick
	}
	span := tick / f.freezeSpan
	if f.src.HashUnit(uint64(node)+7, uint64(span)+3) < f.freezeP {
		return span * f.freezeSpan // frozen since the span start
	}
	return tick
}

// aggregateRef is the from-scratch oracle the row store and the window
// memo are differenced against: every (node, tick) row of the window
// goes through computeRowRef into a row of its own, with no store, tick
// by tick, and the rows fold the way aggregateInto folds them. It runs
// on a sampler state of its own (refSampler), so it shares none of s's
// store, caches or scratch buffers, and it computes every counter: the
// mask is applied to the finished aggregates, as the Sampler doc says it
// acts (unread counters 0, and no mask at all under a fault model).
func aggregateRef(s *Sampler, hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64) Aggregates {
	var (
		out    Aggregates
		fold   tickFold
		counts [NumCounters]int
		row    [NumCounters]float64
	)
	full := refSampler(s)
	startAggregates(&out, full.cols)
	defer applyMask(s, &out)
	nodes = full.capNodesInto(nodes)
	if len(nodes) == 0 {
		return out
	}
	first, last := tickBounds(t0, t1)
	if last < first {
		first = int64(math.Floor(t0 / SamplePeriod))
		last = first
	}
	slices := hist.WindowInto(t0, t1, nil)
	fold.reset()
	for tick := first; tick <= last; tick++ {
		tickT := float64(tick) * SamplePeriod
		if tickT < t0 {
			tickT = t0
		}
		_, tickNet, tickFS := loadsAt(slices, 0, tickT)
		fold.nextTick()
		for _, node := range nodes {
			computeRowRef(full, slices, node, tick, tickT, tickNet, tickFS, row[:len(full.cols)])
			fold.add(row[:], true)
		}
		fold.mergeInto(&out, &counts, full.cols)
	}
	finishAggregates(&out, &counts, full.cols)
	return out
}

// computeRowRef is the row kernel's oracle, the sample synthesis written
// out value by value straight from the schema: vals[j] is the sample of
// counter s.cols[j] on node at tick, whose loads at its sample time tickT
// the caller resolved; NaN if its table was dropped. Each value hashes
// (counter, node, tick) from the counter's noise hash, node and tick
// rounds both taken here; a frozen tick hashes, and reads the loads of,
// the tick it repeats. It returns the instant the values reflect.
func computeRowRef(s *Sampler, slices []simnet.Slice, node cluster.NodeID, tick int64, tickT float64, tickNet []float64, tickFS float64, vals []float64) float64 {
	effTick, effNet, effFS, effT := tick, tickNet, tickFS, tickT
	if s.faults != nil {
		if et := s.faults.SampleTick(node, tick); et < tick {
			effTick, effT = et, float64(et)*SamplePeriod
			_, effNet, effFS = loadsAt(slices, 0, effT)
		}
	}
	var net float64
	if pod := s.topo.PodOf(node); pod >= 0 && pod < len(effNet) {
		net = effNet[pod]
	}
	for j, ci := range s.cols {
		c := schema[ci]
		if s.faults != nil && s.faults.Dropped(c.Table, node, tick) {
			vals[j] = math.NaN()
			continue
		}
		var signal float64
		switch c.Src {
		case SrcNet:
			signal = net
		case SrcNetOverload:
			signal = simnet.Overload(net)
		case SrcFS:
			signal = effFS
		case SrcFSOverload:
			signal = simnet.Overload(effFS)
		}
		u := 2*s.noiseHash[ci].Mix(uint64(node)+0x9e37).Mix(uint64(effTick)+0x7f4a).Unit() - 1
		v := (c.Base + c.Gain*signal) * (1 + c.Noise*u*math.Sqrt(3))
		if v < 0 {
			v = 0
		}
		vals[j] = v
	}
	return effT
}

// refSampler returns a sampler that synthesizes what s does — the same
// topology, noise hashes and fault model — with every counter and an
// empty store of its own that it never binds.
func refSampler(s *Sampler) *Sampler {
	full := &Sampler{
		topo: s.topo, faults: s.faults, noiseHash: s.noiseHash, mask: allCounters(),
	}
	full.setCols()
	return full
}

// applyMask zeroes the aggregates of the counters s's mask does not
// read, unless a fault model is installed, under which s ignores it.
func applyMask(s *Sampler, out *Aggregates) {
	if s.faults != nil {
		return
	}
	for ci, read := range s.mask {
		if !read {
			out.Min[ci], out.Mean[ci], out.Max[ci] = 0, 0, 0
		}
	}
}

// allCounters is the mask that reads every counter, a new sampler's.
func allCounters() (mask [NumCounters]bool) {
	for ci := range mask {
		mask[ci] = true
	}
	return mask
}

// TestReferenceLeavesSamplerAlone checks that the oracle shares no state
// with the sampler it checks: asking it leaves the sampler's stored rows,
// its store's size and its answers as they were.
func TestReferenceLeavesSamplerAlone(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		now := new(float64)
		st, err := simnet.NewState(testTopo(), func() float64 { return *now })
		if err != nil {
			t.Fatal(err)
		}
		s := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
		s.SetCounterMask(hashedMask(5, 0.4))
		if faulted {
			s.SetFaults(testFaults{src: sim.NewSource(2), dropP: 0.2, freezeP: 0.2, freezeSpan: 4})
		}
		nodes := []cluster.NodeID{0, 1, 17, 40}
		st.Apply(simnet.Contribution{PodNet: map[int]float64{1: 0.8}, FS: 0.3})
		*now = 900
		before := s.AggregateWindow(st.History(), nodes, *now)
		rows, bytes := s.cachedRows(), s.StoreBytes()
		aggregateRef(s, st.History(), nodes, *now-WindowSeconds, *now)
		aggregateRef(s, st.History(), AllNodes(testTopo()), *now-2*WindowSeconds, *now)
		if r, b := s.cachedRows(), s.StoreBytes(); r != rows || b != bytes {
			t.Fatalf("faulted %v: the oracle moved the store from %d rows, %d bytes to %d, %d", faulted, rows, bytes, r, b)
		}
		sameAggregates(t, fmt.Sprintf("faulted %v: after the oracle", faulted), s.AggregateWindow(st.History(), nodes, *now), before)
	}
}

// sameAggregates compares two aggregate sets bit-for-bit (NaN == NaN).
func sameAggregates(t *testing.T, label string, a, b Aggregates) {
	t.Helper()
	cmp := func(name string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v (0x%x) vs %v (0x%x)",
					label, name, i, x[i], math.Float64bits(x[i]), y[i], math.Float64bits(y[i]))
			}
		}
	}
	cmp("Min", a.Min, b.Min)
	cmp("Mean", a.Mean, b.Mean)
	cmp("Max", a.Max, b.Max)
}

// scrambleLoad applies a deterministic pseudo-random load mutation.
func scrambleLoad(st *simnet.State, rng *sim.Source, step int) simnet.Contribution {
	c := simnet.Contribution{
		PodNet: map[int]float64{step % 4: rng.Uniform(0, 1.2)},
		FS:     rng.Uniform(0, 0.8),
	}
	st.Apply(c)
	return c
}

// TestFastAggregationMatchesReference is the tentpole differential
// property test: over several seeds, with and without fault injection,
// the cached fast path (AggregateRangeInto) must be bit-identical to the
// from-scratch reference (aggregateRef) for a mix of sliding,
// overlapping, and repeated windows interleaved with load changes.
func TestFastAggregationMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, faulted := range []bool{false, true} {
			now := new(float64)
			st, err := simnet.NewState(testTopo(), func() float64 { return *now })
			if err != nil {
				t.Fatal(err)
			}
			sampler := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
			if faulted {
				sampler.SetFaults(testFaults{
					src:        sim.NewSource(seed).Derive("faults"),
					dropP:      0.3,
					freezeP:    0.25,
					freezeSpan: 7,
				})
			}
			rng := sim.NewSource(seed).Derive("loads")
			nodes := []cluster.NodeID{0, 1, 5, 9, 17, 33, 60}

			var prev simnet.Contribution
			for step := 0; step < 30; step++ {
				// Mutate load at the present, then query windows ending
				// at or before now (the sampler's contract).
				st.Remove(prev)
				prev = scrambleLoad(st, rng, step)
				*now += rng.Uniform(10, 120)

				t1 := *now
				t0 := t1 - WindowSeconds
				if step%3 == 2 {
					// Occasionally a shorter or offset window.
					t1 -= rng.Uniform(0, 60)
					t0 = t1 - rng.Uniform(5, WindowSeconds)
				}
				var fast, again Aggregates
				sampler.AggregateRangeInto(st.History(), nodes, t0, t1, &fast)
				ref := aggregateRef(sampler, st.History(), nodes, t0, t1)
				sameAggregates(t, "window", fast, ref)

				// Re-query the same window: fully cached result.
				sampler.AggregateRangeInto(st.History(), nodes, t0, t1, &again)
				sameAggregates(t, "requery", again, ref)
			}
			if sampler.cachedRows() == 0 {
				t.Fatal("row cache never populated")
			}
		}
	}
}

// TestSamplerPrune checks pruning evicts old rows, keeps recent ones, and
// leaves in-window aggregation bit-identical to the reference.
func TestSamplerPrune(t *testing.T) {
	now := new(float64)
	st, err := simnet.NewState(testTopo(), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
	nodes := []cluster.NodeID{0, 1, 2, 3}

	*now = 100
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.5}})
	for _, t1 := range []float64{400, 700, 1000, 1300} {
		*now = t1
		sampler.AggregateWindow(st.History(), nodes, t1)
	}
	before := sampler.cachedRows()
	if before == 0 {
		t.Fatal("no rows cached")
	}
	cut := 1300 - WindowSeconds
	st.History().Prune(cut)
	sampler.Prune(cut)
	after := sampler.cachedRows()
	if after >= before {
		t.Fatalf("prune kept %d of %d rows", after, before)
	}
	fast := sampler.AggregateWindow(st.History(), nodes, 1300)
	ref := aggregateRef(sampler, st.History(), nodes, 1300-WindowSeconds, 1300)
	sameAggregates(t, "post-prune", fast, ref)
}

// TestAggregationSteadyStateZeroAllocs pins the fast path's allocation
// contract: once warm, window aggregation over a machine-wide scope and
// FreshnessAge allocate nothing.
func TestAggregationSteadyStateZeroAllocs(t *testing.T) {
	now := new(float64)
	st, err := simnet.NewState(testTopo(), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
	nodes := AllNodes(testTopo())

	*now = 100
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.7}, FS: 0.2})
	*now = 900

	var agg Aggregates
	sampler.AggregateWindowInto(st.History(), nodes, *now, &agg) // warm caches and buffers

	if allocs := testing.AllocsPerRun(100, func() {
		sampler.AggregateWindowInto(st.History(), nodes, *now, &agg)
	}); allocs != 0 {
		t.Fatalf("AggregateWindowInto allocated %.1f times per run; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sampler.FreshnessAge(nodes, *now)
	}); allocs != 0 {
		t.Fatalf("FreshnessAge allocated %.1f times per run; want 0", allocs)
	}
}
