package telemetry

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// cachedRows returns the number of (node, tick) sample rows currently
// memoized; it walks the store.
func (s *Sampler) cachedRows() int {
	st := &s.store
	n := 0
	for b := range st.blocks {
		for _, h := range &st.blocks[b].heads {
			if h.gen == st.gen && h.effT >= st.pruned {
				n++
			}
		}
	}
	return n
}

// storeTopo is wider than maxScopeNodes, so scopes can exceed the cap,
// and not a multiple of blockNodes, so the last block is partial.
func storeTopo() cluster.Topology {
	return cluster.Topology{Nodes: 300, PodSize: 32, CoresPerNode: 4}
}

func newStoreEnv(t *testing.T) (*simnet.State, *Sampler, *float64) {
	t.Helper()
	now := new(float64)
	st, err := simnet.NewState(storeTopo(), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	return st, NewSampler(storeTopo(), sim.NewSource(11).Derive("telemetry")), now
}

// drainFreeStore empties the process-wide free list, so what a sampler
// allocates next does not depend on what earlier tests released.
func drainFreeStore() {
	freeStore.Lock()
	freeStore.blocks, freeStore.vals, freeStore.bytes = nil, nil, 0
	freeStore.Unlock()
}

// borrow is another sampler's trial between two queries of s: s releases
// its store; a second sampler over the same topology and history, with
// noise of its own and the row width set gives it, takes memory from the
// free list, writes its rows over it on each scope's standard window
// ending at t1, and releases it again. Its answers are checked against
// the reference too.
func borrow(t *testing.T, label string, s *Sampler, hist *simnet.History, set func(*Sampler), t1 float64, scopes ...[]cluster.NodeID) {
	t.Helper()
	s.Release()
	other := NewSampler(s.topo, sim.NewSource(12).Derive("telemetry"))
	set(other)
	var got Aggregates
	for _, nodes := range scopes {
		other.AggregateWindowInto(hist, nodes, t1, &got)
		sameAggregates(t, label+": the borrowing sampler", got, aggregateRef(other, hist, nodes, t1-WindowSeconds, t1))
	}
	other.Release()
}

// borrowWidth returns a row width setting for borrow from a draw k: all
// counters, a mask of about p of them, or a fault model (all counters,
// some dropped).
func borrowWidth(k int, seed int64, p float64) func(*Sampler) {
	switch k % 3 {
	case 0:
		return func(*Sampler) {}
	case 1:
		return func(o *Sampler) { o.SetCounterMask(hashedMask(seed, p)) }
	default:
		return func(o *Sampler) { o.SetFaults(testFaults{src: sim.NewSource(seed), dropP: p / 2, freezeSpan: 3}) }
	}
}

// TestSynthesisMatchesOneShotHash pins the kernel's oracle, computeRowRef,
// to the definition of a sample, written out here the slow way: the noise
// of a sample is the one-shot hash of (counter, node, tick), the signal is
// picked by a switch per counter.
func TestSynthesisMatchesOneShotHash(t *testing.T) {
	rng := sim.NewSource(11).Derive("telemetry")
	s := NewSampler(storeTopo(), rng)
	podNet := make([]float64, storeTopo().Pods())
	for p := range podNet {
		podNet[p] = 0.15 * float64(p)
	}
	const fs = 0.93
	for _, node := range []cluster.NodeID{0, 31, 32, 299} {
		for _, tick := range []int64{-20, -1, 0, 1, 47, 1 << 40} {
			var row [NumCounters]float64
			computeRowRef(s, nil, node, tick, float64(tick)*SamplePeriod, podNet, fs, row[:])
			net := podNet[storeTopo().PodOf(node)]
			for ci, c := range Schema() {
				var signal float64
				switch c.Src {
				case SrcNet:
					signal = net
				case SrcNetOverload:
					signal = simnet.Overload(net)
				case SrcFS:
					signal = fs
				case SrcFSOverload:
					signal = simnet.Overload(fs)
				}
				u := 2*rng.HashUnit(uint64(ci)+1, uint64(node)+0x9e37, uint64(tick)+0x7f4a) - 1
				want := (c.Base + c.Gain*signal) * (1 + c.Noise*u*math.Sqrt(3))
				if want < 0 {
					want = 0
				}
				if math.Float64bits(row[ci]) != math.Float64bits(want) {
					t.Fatalf("node %d tick %d counter %d: %v, want %v", node, tick, ci, row[ci], want)
				}
			}
		}
	}
}

// TestRowKernelMatchesReference checks the row kernel — a node's hash
// round taken once by nodeHashes, then computeRow per tick from the
// column table — against computeRowRef, which hashes every value from
// the schema, bit for bit, values and effective instant: with no mask,
// under a mask, and under a fault model that freezes and drops; on
// negative ticks and on node IDs the topology does not have.
func TestRowKernelMatchesReference(t *testing.T) {
	topo := storeTopo()
	early, late := make([]float64, topo.Pods()), make([]float64, topo.Pods())
	for p := range early {
		early[p], late[p] = 0.1*float64(p), 1.3-0.1*float64(p)
	}
	// Two epochs, so a frozen row reads other loads than its tick's.
	slices := []simnet.Slice{{T0: -1e6, T1: 200, PodNet: early, FS: 0.2}, {T0: 200, T1: 1e15, PodNet: late, FS: 1.1}}
	for _, c := range []struct {
		label string
		set   func(*Sampler)
	}{
		{"no mask", func(*Sampler) {}},
		{"mask", func(s *Sampler) { s.SetCounterMask(hashedMask(3, 0.4)) }},
		{"faults", func(s *Sampler) {
			s.SetCounterMask(hashedMask(3, 0.4))
			s.SetFaults(testFaults{src: sim.NewSource(6), dropP: 0.3, freezeP: 0.5, freezeSpan: 5})
		}},
	} {
		s := NewSampler(topo, sim.NewSource(11).Derive("telemetry"))
		c.set(s)
		frozen, dropped := 0, 0
		for _, node := range []cluster.NodeID{0, 31, 32, 299, 300, 5000, -40} {
			pre := make([]sim.HashState, len(s.cols))
			s.nodeHashes(node, pre)
			for _, tick := range []int64{-20, -1, 0, 1, 13, 14, 47, 1 << 40} {
				tk := tickLoad{tick: tick, t: float64(tick) * SamplePeriod}
				_, tk.net, tk.fs = loadsAt(slices, 0, tk.t)
				got, want := make([]float64, len(s.cols)), make([]float64, len(s.cols))
				effGot := s.computeRow(slices, node, pre, &tk, got)
				effWant := computeRowRef(s, slices, node, tick, tk.t, tk.net, tk.fs, want)
				label := fmt.Sprintf("%s: node %d tick %d", c.label, node, tick)
				if math.Float64bits(effGot) != math.Float64bits(effWant) {
					t.Fatalf("%s: reflects %v, want %v", label, effGot, effWant)
				}
				if effGot < tk.t {
					frozen++
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s: counter %d = %v, want %v", label, s.cols[j], got[j], want[j])
					}
					if math.IsNaN(got[j]) {
						dropped++
					}
				}
			}
		}
		if c.label == "faults" && (frozen == 0 || dropped == 0) {
			t.Fatalf("faults: %d frozen rows, %d dropped values; the fault paths were not exercised", frozen, dropped)
		}
	}
}

// TestOutOfRangeNodesAreServedUncached: a node ID the topology does not
// have has no ring; it must be answered like the reference answers it and
// leave nothing behind.
func TestOutOfRangeNodesAreServedUncached(t *testing.T) {
	st, s, now := newStoreEnv(t)
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.9}, FS: 0.4})
	*now = 900
	beyond := cluster.NodeID(storeTopo().Nodes)
	outside := []cluster.NodeID{beyond, beyond + 4096, -1, -5000}
	for i := 0; i < 2; i++ {
		fast := s.AggregateWindow(st.History(), outside, *now)
		sameAggregates(t, "outside", fast, aggregateRef(s, st.History(), outside, *now-WindowSeconds, *now))
	}
	if n := s.cachedRows(); n != 0 {
		t.Fatalf("%d rows stored for nodes that have no ring", n)
	}
	mixed := append([]cluster.NodeID{3, 4}, outside...)
	fast := s.AggregateWindow(st.History(), mixed, *now)
	sameAggregates(t, "mixed", fast, aggregateRef(s, st.History(), mixed, *now-WindowSeconds, *now))
	if n := s.cachedRows(); n != 2*WindowTicks {
		t.Fatalf("%d rows stored, want the %d of the two real nodes", n, 2*WindowTicks)
	}
}

// TestNegativeTicksLandInRing: the first windows of a run start before
// time zero. Their negative ticks must be stored and found again.
func TestNegativeTicksLandInRing(t *testing.T) {
	st, s, now := newStoreEnv(t)
	st.Apply(simnet.Contribution{PodNet: map[int]float64{1: 0.7}})
	nodes := []cluster.NodeID{40, 41, 42}
	for _, t1 := range []float64{0, 7, 15, 100, 299, 300} {
		*now = t1
		fast := s.AggregateWindow(st.History(), nodes, t1)
		sameAggregates(t, "early", fast, aggregateRef(s, st.History(), nodes, t1-WindowSeconds, t1))
	}
	// Ticks -20 .. 19 were asked for, and 40 ticks do not fit a ring of
	// ringTicks: what is left is the newest ringTicks per node, the
	// oldest of them still negative.
	if n, want := s.cachedRows(), len(nodes)*ringTicks; n != want {
		t.Fatalf("%d rows stored, want %d", n, want)
	}
	oldest := int64(19 - ringTicks + 1)
	if oldest >= 0 {
		t.Fatalf("the ring keeps no negative tick: oldest kept is %d", oldest)
	}
	for _, node := range nodes {
		if h, _ := s.store.slot(node, ringPos(oldest)); !s.store.live(h, oldest, -WindowSeconds) {
			t.Fatalf("node %d: tick %d not stored in its slot", node, oldest)
		}
	}
}

// TestWindowLongerThanRing: AggregateRangeInto takes any interval. One of
// more than ringTicks ticks overwrites its own rows as it goes and must
// still be right, every time.
func TestWindowLongerThanRing(t *testing.T) {
	st, s, now := newStoreEnv(t)
	nodes := []cluster.NodeID{0, 1, 100, 299}
	for step := 0; step < 6; step++ {
		st.Apply(simnet.Contribution{PodNet: map[int]float64{step % 3: 0.3}, FS: 0.1})
		*now += 700
	}
	for _, span := range []float64{float64(ringTicks+1) * SamplePeriod, 1000, 4000} {
		for i := 0; i < 2; i++ {
			var fast Aggregates
			s.AggregateRangeInto(st.History(), nodes, *now-span, *now, &fast)
			sameAggregates(t, "long", fast, aggregateRef(s, st.History(), nodes, *now-span, *now))
		}
		// A standard window straight after finds a ring the long one
		// churned through.
		fast := s.AggregateWindow(st.History(), nodes, *now)
		sameAggregates(t, "after long", fast, aggregateRef(s, st.History(), nodes, *now-WindowSeconds, *now))
	}
}

// TestRowStoreMatchesReferenceProperty drives one sampler through more
// than ten thousand random queries — scopes of one node to more than the
// cap, node IDs outside the topology, window ends on and off tick
// boundaries, sub-period, standard and longer-than-ring windows, windows
// that start before time zero — interleaved with load changes, prunes of
// sampler and history, and fault models coming and going, and
// checks every answer of the fast path against the reference bit for bit.
// Now and then the sampler releases its store and another sampler, of
// the same or another row width, writes its own rows over that memory
// before the sampler takes memory back (see borrow).
func TestRowStoreMatchesReferenceProperty(t *testing.T) {
	const seeds, queries = 3, 3500 // 10,500 in all
	topo := storeTopo()
	for seed := int64(1); seed <= seeds; seed++ {
		st, s, now := newStoreEnv(t)
		hist := st.History()
		rng := sim.NewSource(seed).Derive("property")
		var load simnet.Contribution
		var buf Aggregates
		populated := false
		for q := 0; q < queries; q++ {
			// The present moves on and the load with it.
			if rng.Bool(0.6) {
				st.Remove(load)
				load = simnet.Contribution{
					PodNet: map[int]float64{rng.Intn(topo.Pods()): rng.Uniform(0, 1.3)},
					FS:     rng.Uniform(0, 1.1),
				}
				st.Apply(load)
			}
			*now += rng.Uniform(0, 70)

			switch rng.Intn(40) {
			case 0:
				s.SetFaults(testFaults{
					src:   sim.NewSource(seed + int64(q)).Derive("faults"),
					dropP: rng.Uniform(0, 0.4), freezeP: rng.Uniform(0, 0.4),
					freezeSpan: int64(2 + rng.Intn(9)),
				})
			case 1:
				s.SetFaults(nil)
			case 2:
				s.SetFaults(testFaults{src: sim.NewSource(seed).Derive("drops"), dropP: rng.Uniform(0, 0.2), freezeSpan: 2})
			case 3:
				s.SetFaults(nil)
			case 4, 5:
				// History and sampler pruned together, as the machine does.
				cut := *now - rng.Uniform(0, 3*WindowSeconds)
				hist.Prune(cut)
				s.Prune(cut)
			case 6:
				s.Prune(*now - rng.Uniform(0, 2*WindowSeconds))
			case 7:
				lo := rng.Intn(topo.Nodes)
				borrow(t, fmt.Sprintf("seed %d query %d", seed, q), s, hist,
					borrowWidth(rng.Intn(3), seed+int64(q), rng.Uniform(0, 1)), *now,
					[]cluster.NodeID{cluster.NodeID(lo), cluster.NodeID((lo + 40) % topo.Nodes)}, AllNodes(topo))
			}

			// Scope.
			var size int
			switch k := rng.Intn(20); {
			case k < 6:
				size = 1
			case k < 17:
				size = 2 + rng.Intn(15)
			case k < 19:
				size = 17 + rng.Intn(maxScopeNodes-16)
			default:
				size = maxScopeNodes + 1 + rng.Intn(topo.Nodes)
			}
			nodes := make([]cluster.NodeID, size)
			if rng.Bool(0.5) {
				lo := rng.Intn(topo.Nodes)
				for i := range nodes {
					nodes[i] = cluster.NodeID((lo + i) % topo.Nodes)
				}
			} else {
				for i := range nodes {
					nodes[i] = cluster.NodeID(rng.Intn(topo.Nodes))
				}
			}
			if rng.Bool(0.1) {
				nodes[rng.Intn(size)] = cluster.NodeID(topo.Nodes + rng.Intn(100))
				nodes[rng.Intn(size)] = cluster.NodeID(-1 - rng.Intn(100))
			}

			// Window: ends at or before now.
			t1 := *now
			if rng.Bool(0.5) {
				t1 -= rng.Uniform(0, 200)
			}
			if rng.Bool(0.3) {
				t1 = math.Floor(t1/SamplePeriod) * SamplePeriod
			}
			var t0 float64
			switch k := rng.Intn(10); {
			case k < 2:
				t0 = t1 - rng.Uniform(0.1, SamplePeriod)
			case k < 4:
				t0 = t1 - rng.Uniform(SamplePeriod, WindowSeconds)
			case k < 5:
				t0 = t1 - rng.Uniform(ringTicks*SamplePeriod, 3*ringTicks*SamplePeriod)
			default:
				t0 = t1 - WindowSeconds
			}

			s.AggregateRangeInto(hist, nodes, t0, t1, &buf)
			label := fmt.Sprintf("seed %d query %d: %d nodes, window [%v, %v) at now %v", seed, q, size, t0, t1, *now)
			sameAggregates(t, label, buf, aggregateRef(s, hist, nodes, t0, t1))
			if q%100 == 0 && s.cachedRows() > 0 {
				populated = true
			}
		}
		if !populated {
			t.Fatal("row store never populated")
		}
	}
}

// TestColdWindowZeroAllocs pins the other half of the allocation
// contract (TestAggregationSteadyStateZeroAllocs covers warm windows): a
// window none of whose rows are stored, on nodes whose block exists,
// computes them in place and allocates nothing.
func TestColdWindowZeroAllocs(t *testing.T) {
	st, s, now := newStoreEnv(t)
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.7}, FS: 0.2})
	nodes := make([]cluster.NodeID, blockNodes)
	for i := range nodes {
		nodes[i] = cluster.NodeID(blockNodes + i)
	}
	var agg Aggregates
	*now = 900
	s.AggregateWindowInto(st.History(), nodes, *now, &agg) // allocates the block and the buffers
	allocs := testing.AllocsPerRun(20, func() {
		*now += 2 * WindowSeconds // past every stored row
		tick := int64(*now/SamplePeriod) - 1
		if h, _ := s.store.slot(nodes[0], ringPos(tick)); s.store.live(h, tick, *now-WindowSeconds) {
			t.Fatal("window was not cold")
		}
		s.AggregateWindowInto(st.History(), nodes, *now, &agg)
	})
	if allocs != 0 {
		t.Fatalf("cold window allocated %.1f times per run; want 0", allocs)
	}
}

// TestBlockIsWidthSized pins the store's memory to its row width: under
// a mask of 37 counters, the first window on a block's nodes allocates
// one object, the block's ringTicks × blockNodes rows of 37 values;
// under a fault model, which computes every counter, the same block is
// NumCounters values wide. StoreBytes grows by the block's size. Each
// count is the fewest of three, each on a sampler made afresh that has
// answered one window on another block (see alloctest.Count).
func TestBlockIsWidthSized(t *testing.T) {
	const pageSize = 8192 // the runtime rounds an object this large up to whole pages
	var mask [NumCounters]bool
	for ci := 0; ci < 37; ci++ {
		mask[2*ci] = true
	}
	for _, c := range []struct {
		label string
		set   func(s *Sampler)
		width int
	}{
		{"mask of 37", func(s *Sampler) { s.SetCounterMask(mask) }, 37},
		{"fault model", func(s *Sampler) { s.SetFaults(testFaults{src: sim.NewSource(3), dropP: 0.2, freezeSpan: 4}) }, NumCounters},
	} {
		var (
			st     *simnet.State
			s      *Sampler
			now    *float64
			agg    Aggregates
			before int
		)
		setup := func() {
			drainFreeStore()
			st, s, now = newStoreEnv(t)
			st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.7}, FS: 0.2})
			*now = 900
			c.set(s)
			agg = Aggregates{}
			s.AggregateWindowInto(st.History(), []cluster.NodeID{0}, *now, &agg) // block 0, the buffers
			before = s.StoreBytes()
		}
		objects, bytes := alloctest.Count(3, setup, func() {
			s.AggregateWindowInto(st.History(), []cluster.NodeID{blockNodes, blockNodes + 1}, *now, &agg)
		})
		want := ringTicks * blockNodes * c.width * 8
		if got := 8 * len(s.store.blocks[1].vals); got != want {
			t.Fatalf("%s: a block of %d bytes, want %d", c.label, got, want)
		}
		if got := s.StoreBytes() - before; got != want {
			t.Fatalf("%s: StoreBytes grew by %d, want %d", c.label, got, want)
		}
		if objects != 1 || bytes < uint64(want) || bytes >= uint64(want+pageSize) {
			t.Fatalf("%s: touching a block allocated %d objects, %d bytes; want one of %d bytes", c.label, objects, bytes, want)
		}
	}
}

// TestWidthChangesMatchReference drives one sampler through a mask, a
// fault model and its removal, which change the row width twice, with
// sliding windows in between, and checks every window against the
// reference bit for bit.
func TestWidthChangesMatchReference(t *testing.T) {
	st, s, now := newStoreEnv(t)
	nodes := []cluster.NodeID{0, 1, 15, 16, 17, 100, 299}
	rng := sim.NewSource(8).Derive("loads")
	var load simnet.Contribution
	var got Aggregates
	for phase, set := range []func(){
		func() { s.SetCounterMask(hashedMask(37, 0.4)) },
		func() { s.SetFaults(testFaults{src: sim.NewSource(3), dropP: 0.2, freezeP: 0.3, freezeSpan: 6}) },
		func() { s.SetFaults(nil) },
	} {
		set()
		for step := 0; step < 8; step++ {
			st.Remove(load)
			load = scrambleLoad(st, rng, step)
			*now += rng.Uniform(5, 60)
			s.AggregateWindowInto(st.History(), nodes, *now, &got)
			sameAggregates(t, fmt.Sprintf("phase %d step %d", phase, step), got,
				aggregateRef(s, st.History(), nodes, *now-WindowSeconds, *now))
		}
	}
}

// FuzzRowStoreOps lets the fuzzer write a sampler's life four bytes at a
// time (op, a, b, c): load mutations and clock advances; paired
// Sampler.Prune / History.Prune; fault models and counter masks coming
// and going, which flush the store; window queries over job scopes,
// scopes over maxScopeNodes, node IDs outside the topology, and windows
// from sub-period to longer than the ring; repeats of the last window on
// its scope or on another one, which the window memo may answer; and
// standard windows over the capped machine-wide scope core.Collect
// aggregates; and the sampler's release of its store to another
// sampler, of a row width of its own, that writes rows over it before the
// sampler takes memory back (see borrow). Every answer of
// AggregateRangeInto must equal aggregateRef, which applies the same
// mask, bit for bit. Operations 0 to 11 read as they did before the
// release step (12) was added, so the seeds below keep their meaning.
func FuzzRowStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 90, 40, 1, 20, 0, 0, 5, 0, 3, 1, 1, 60, 0, 0, 6, 1, 7, 2, 5, 2, 0, 1})
	f.Add([]byte{4, 1, 3, 120, 1, 30, 0, 0, 7, 3, 9, 0, 2, 200, 0, 0, 5, 0, 4, 2, 3, 100, 0, 0, 6, 4, 0, 1})
	f.Add([]byte{4, 2, 5, 0, 1, 45, 0, 0, 7, 1, 33, 3, 0, 2, 250, 50, 5, 0, 2, 0, 4, 0, 0, 0, 5, 0, 2, 1})
	f.Add([]byte{8, 3, 4, 100, 1, 40, 0, 0, 5, 0, 3, 1, 8, 0, 0, 0, 4, 4, 0, 1, 8, 1, 1, 255, 6, 1, 7, 2, 3, 1, 9, 80, 7, 0, 5, 1})
	// Widths crossed with queries in between: a partial mask, a fault
	// model (every counter), back to the mask, all counters, none, and
	// the partial mask again.
	f.Add([]byte{1, 60, 0, 0, 0, 1, 90, 40, 8, 0, 7, 95, 4, 0, 5, 1, 1, 30, 0, 0, 5, 4, 3, 1,
		3, 1, 9, 60, 4, 0, 5, 1, 6, 2, 40, 5, 1, 20, 0, 0, 3, 0, 0, 0, 7, 1, 6, 9, 4, 0, 5, 1,
		8, 1, 2, 255, 4, 0, 5, 2, 8, 3, 3, 0, 5, 4, 3, 1, 8, 0, 7, 95, 4, 0, 5, 1})
	// A standard window on a job scope, then repeats of it: a memo hit;
	// on another scope, then the first again (two entries); and after
	// each thing that empties the memo or moves what it answers: a load
	// change at the same instant, a prune, a fault model, a counter mask,
	// and a machine-wide window at the same and at the present bounds.
	f.Add([]byte{1, 200, 0, 0, 4, 0, 3, 5, 9, 0, 0, 0, 10, 1, 9, 30, 9, 0, 0, 0, 10, 0, 3, 5,
		0, 1, 90, 40, 9, 0, 0, 0, 2, 200, 0, 0, 9, 0, 0, 0, 3, 2, 3, 20, 9, 0, 0, 0,
		8, 0, 7, 95, 9, 0, 0, 0, 11, 0, 0, 0, 9, 0, 0, 0, 11, 1, 0, 0, 9, 0, 0, 0})
	// The same under a freezing fault model, whose window-dependent rows
	// keep a window out of the memo, and with a scope over the cap.
	f.Add([]byte{1, 250, 0, 0, 3, 1, 5, 200, 4, 0, 0, 1, 9, 0, 0, 0, 1, 3, 0, 0, 4, 2, 2, 5,
		9, 0, 0, 0, 10, 4, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 4, 2, 2, 5, 9, 0, 0, 0, 10, 3, 0, 1})
	// A masked window, a release to a sampler of every counter, one to a
	// narrower mask and one to a fault model, each followed by the same
	// window, which the sampler answers from memory the other wrote.
	f.Add([]byte{8, 0, 7, 95, 1, 200, 0, 0, 4, 0, 3, 5, 12, 0, 3, 5, 9, 0, 0, 0,
		12, 1, 9, 40, 9, 0, 0, 0, 1, 30, 0, 0, 4, 0, 3, 5, 12, 2, 4, 120, 9, 0, 0, 0, 10, 1, 9, 30})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<9 {
			ops = ops[:1<<9]
		}
		st, s, now := newStoreEnv(t)
		hist, topo := st.History(), storeTopo()
		// The clock starts past the history's first epoch, at 0. Ticks
		// before it read that epoch's loads, which a mutation at 0 still
		// changes, so a row stored at 0 can go stale (see Sampler).
		*now = SamplePeriod
		var load simnet.Contribution
		var buf Aggregates
		// The last window asked for: its scope and bounds (none yet).
		var lastNodes []cluster.NodeID
		lastT0, lastT1 := math.NaN(), math.NaN()
		query := func(step int, nodes []cluster.NodeID, t0, t1 float64) {
			s.AggregateRangeInto(hist, nodes, t0, t1, &buf)
			sameAggregates(t, fmt.Sprintf("step %d: %d nodes, window [%v, %v) at now %v", step, len(nodes), t0, t1, *now),
				buf, aggregateRef(s, hist, nodes, t0, t1))
			lastNodes, lastT0, lastT1 = nodes, t0, t1
		}
		scope := func(a, b, c byte) []cluster.NodeID {
			var nodes []cluster.NodeID
			switch a % 5 {
			case 0: // a job scope of adjacent nodes
				for i := 0; i < 1+int(b%16); i++ {
					nodes = append(nodes, cluster.NodeID((int(c)+i)%topo.Nodes))
				}
			case 1: // a scattered job scope
				for i := 0; i < 1+int(b%16); i++ {
					nodes = append(nodes, cluster.NodeID((int(c)*7+i*37)%topo.Nodes))
				}
			case 2: // more nodes than maxScopeNodes, so the scope is capped
				for i := 0; i < maxScopeNodes+1+int(b); i++ {
					nodes = append(nodes, cluster.NodeID((int(c)+i)%topo.Nodes))
				}
			case 3: // IDs the topology does not have, among ones it does
				nodes = []cluster.NodeID{cluster.NodeID(int(c) % topo.Nodes), cluster.NodeID(topo.Nodes + int(b)), cluster.NodeID(-1 - int(c))}
			default:
				nodes = AllNodes(topo)
			}
			return nodes
		}
		for step := 0; len(ops) >= 4; step++ {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			switch op % 13 {
			case 0:
				st.Remove(load)
				load = simnet.Contribution{PodNet: map[int]float64{int(a) % topo.Pods(): float64(b) / 200}, FS: float64(c) / 230}
				st.Apply(load)
			case 1:
				*now += float64(a) + float64(b)/256
			case 2:
				cut := *now - float64(a)/255*3*WindowSeconds
				hist.Prune(cut)
				s.Prune(cut)
			case 3:
				switch a % 4 {
				case 0:
					s.SetFaults(nil)
				case 1:
					s.SetFaults(testFaults{src: sim.NewSource(int64(b)), dropP: float64(c%128) / 255, freezeP: float64(c/2) / 255, freezeSpan: int64(2 + b%9)})
				case 2:
					s.SetFaults(testFaults{src: sim.NewSource(int64(c)), dropP: float64(b%64) / 255, freezeSpan: 2})
				default:
					s.SetFaults(nil)
				}
			case 8: // c/255 of the counters, from the empty mask to all of them
				s.SetCounterMask(hashedMask(int64(a)<<8|int64(b), float64(c)/255))
			case 9: // the last window again
				if lastNodes != nil {
					query(step, lastNodes, lastT0, lastT1)
				}
			case 10: // the last window's bounds on another scope
				if lastNodes != nil {
					query(step, scope(a, b, c), lastT0, lastT1)
				}
			case 11: // a machine-wide standard window ending where the last window ends, or at now
				t1 := lastT1
				if lastNodes == nil || a%2 == 1 {
					t1 = *now
				}
				nodes := AllNodes(topo)
				s.AggregateRangeInto(hist, nodes, t1-WindowSeconds, t1, &buf)
				sameAggregates(t, fmt.Sprintf("step %d: machine-wide window at %v, now %v", step, t1, *now),
					buf, aggregateRef(s, hist, nodes, t1-WindowSeconds, t1))
			case 12: // another sampler's trial on the memory the sampler releases
				borrow(t, fmt.Sprintf("step %d", step), s, hist, borrowWidth(int(a), int64(b), float64(c)/255), *now, scope(a, b, c))
			default:
				nodes := scope(a, b, c)
				t1 := *now - float64(b%64)
				if b&64 != 0 {
					t1 = math.Floor(t1/SamplePeriod) * SamplePeriod
				}
				var t0 float64
				switch c % 4 {
				case 0:
					t0 = t1 - float64(1+c%14)
				case 1:
					t0 = t1 - WindowSeconds
				case 2:
					t0 = t1 - float64(ringTicks+1+int(c/4%8))*SamplePeriod
				default:
					t0 = t1 - float64(c)*2
				}
				query(step, nodes, t0, t1)
			}
		}
	})
}

// TestReleasedStoreIsReused is the allocation guard of the free list: a
// sampler made after an equal-topology sampler released its store takes
// that memory, so its first standard window allocates no row-store bytes
// (the block array and one value slab per block touched). Only the
// sampler's own small buffers remain, fewer bytes than one slab. Without
// a release the same window allocates the store, which makes the guard
// one that can fail. Each count is the fewest of three, from a drained
// free list (see alloctest.Count).
func TestReleasedStoreIsReused(t *testing.T) {
	const touched = 3 // blocks the window's scope covers
	mask := hashedMask(37, 0.4)
	nodes := make([]cluster.NodeID, touched*blockNodes)
	for i := range nodes {
		nodes[i] = cluster.NodeID(blockNodes + i)
	}
	var (
		st   *simnet.State
		s    *Sampler
		now  *float64
		agg  Aggregates
		objs [2]uint64
		size [2]uint64
	)
	for i, released := range []bool{false, true} {
		setup := func() {
			drainFreeStore()
			var prev *Sampler
			st, prev, now = newStoreEnv(t)
			st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.7}, FS: 0.2})
			*now = 900
			prev.SetCounterMask(mask)
			prev.AggregateWindowInto(st.History(), nodes, *now, &agg)
			if released {
				prev.Release()
			}
			s = NewSampler(storeTopo(), sim.NewSource(11).Derive("telemetry"))
			s.SetCounterMask(mask)
		}
		objs[i], size[i] = alloctest.Count(3, setup, func() {
			s.AggregateWindowInto(st.History(), nodes, *now, &agg)
		})
		sameAggregates(t, fmt.Sprintf("released %v", released), agg, aggregateRef(s, st.History(), nodes, *now-WindowSeconds, *now))
	}
	slab := uint64(8 * slotsPerBlock * len(s.cols))
	if objs[0]-objs[1] != 1+touched {
		t.Fatalf("a release saved %d of %d objects, want the store's %d: its array and a slab per block", objs[0]-objs[1], objs[0], 1+touched)
	}
	if size[1] >= slab {
		t.Fatalf("after a release the first window allocated %d bytes, as much as a slab of %d", size[1], slab)
	}
	if saved := size[0] - size[1]; saved < uint64(s.StoreBytes()) {
		t.Fatalf("a release saved %d bytes, less than the store's %d", saved, s.StoreBytes())
	}
}

// TestFreeStoreSharedAcrossGoroutines: the trials of a multi-worker run
// release and take row-store memory from several goroutines at once.
// Each goroutine here runs samplers of a row width of its own one after
// another, each releasing its store to whichever sampler takes it next,
// and every window must equal the reference. Run it with -race.
func TestFreeStoreSharedAcrossGoroutines(t *testing.T) {
	const workers, trials, windows = 4, 5, 6
	var (
		wg        sync.WaitGroup
		got, want [workers][trials * windows]Aggregates
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := new(float64)
			st, err := simnet.NewState(storeTopo(), func() float64 { return *now })
			if err != nil {
				t.Error(err)
				return
			}
			rng := sim.NewSource(int64(w)).Derive("loads")
			for trial := range trials {
				s := NewSampler(storeTopo(), sim.NewSource(int64(w)).Derive("telemetry"))
				borrowWidth(w, int64(trial), 0.4)(s)
				for q := range windows {
					scrambleLoad(st, rng, q)
					*now += 40
					nodes := []cluster.NodeID{cluster.NodeID(37 * q), cluster.NodeID(37*q + 1), cluster.NodeID(299 - 11*q)}
					i := trial*windows + q
					s.AggregateWindowInto(st.History(), nodes, *now, &got[w][i])
					want[w][i] = aggregateRef(s, st.History(), nodes, *now-WindowSeconds, *now)
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for i := range got[w] {
			sameAggregates(t, fmt.Sprintf("worker %d window %d", w, i), got[w][i], want[w][i])
		}
	}
}
