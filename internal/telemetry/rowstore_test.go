package telemetry

import (
	"fmt"
	"math"
	"testing"

	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

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

// TestSynthesisMatchesOneShotHash pins sample synthesis to its
// definition, written out here the slow way: the noise of a sample is the
// one-shot hash of (counter, node, tick), the signal is picked by a
// switch per counter. The prefix-hashed, signal-table form must give the
// same bits.
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
			var row sampleRow
			s.computeRow(nil, node, tick, float64(tick)*SamplePeriod, podNet, fs, &row)
			net := podNet[storeTopo().PodOf(node)]
			for ci, c := range s.Schema() {
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
				if math.Float64bits(row.vals[ci]) != math.Float64bits(want) {
					t.Fatalf("node %d tick %d counter %d: %v, want %v", node, tick, ci, row.vals[ci], want)
				}
			}
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
		sameAggregates(t, "outside", fast, s.AggregateRangeRef(st.History(), outside, *now-WindowSeconds, *now))
	}
	if n := s.CachedRows(); n != 0 {
		t.Fatalf("%d rows stored for nodes that have no ring", n)
	}
	mixed := append([]cluster.NodeID{3, 4}, outside...)
	fast := s.AggregateWindow(st.History(), mixed, *now)
	sameAggregates(t, "mixed", fast, s.AggregateRangeRef(st.History(), mixed, *now-WindowSeconds, *now))
	if n := s.CachedRows(); n != 2*WindowTicks {
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
		sameAggregates(t, "early", fast, s.AggregateRangeRef(st.History(), nodes, t1-WindowSeconds, t1))
	}
	// Ticks -20 .. 19 were asked for, and 40 ticks do not fit a ring of
	// 32: what is left is the newest 32 per node, negative ones included.
	if n, want := s.CachedRows(), len(nodes)*ringTicks; n != want {
		t.Fatalf("%d rows stored, want %d", n, want)
	}
	r := s.store.slot(40, -3)
	if !s.store.live(r, -3, -WindowSeconds) {
		t.Fatal("tick -3 not stored in its slot")
	}
}

// TestWindowLongerThanRing: AggregateRange takes any interval. One of
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
			fast := s.AggregateRange(st.History(), nodes, *now-span, *now)
			sameAggregates(t, "long", fast, s.AggregateRangeRef(st.History(), nodes, *now-span, *now))
		}
		// A standard window straight after finds a ring the long one
		// churned through.
		fast := s.AggregateWindow(st.History(), nodes, *now)
		sameAggregates(t, "after long", fast, s.AggregateRangeRef(st.History(), nodes, *now-WindowSeconds, *now))
	}
}

// hashDrift is a pure drift model: a hash-driven rescale from startTick
// on, and now and then a NaN, which a Perturb is free to return.
type hashDrift struct {
	src       *sim.Source
	startTick int64
}

func (d hashDrift) Perturb(ci int, node cluster.NodeID, tick int64, v float64) float64 {
	if tick < d.startTick {
		return v
	}
	u := d.src.HashUnit(uint64(ci), uint64(node)+5, uint64(tick)+9)
	if u < 0.01 {
		return math.NaN()
	}
	return v * (0.5 + u)
}

// TestRowStoreMatchesReferenceProperty drives one sampler through more
// than ten thousand random queries — scopes of one node to more than the
// cap, node IDs outside the topology, window ends on and off tick
// boundaries, sub-period, standard and longer-than-ring windows, windows
// that start before time zero — interleaved with load changes, prunes of
// sampler and history, and fault and drift models coming and going, and
// checks every answer of the fast path against the reference bit for bit.
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
				s.SetDrift(hashDrift{src: sim.NewSource(seed).Derive("drift"), startTick: int64(*now/SamplePeriod) - int64(rng.Intn(30))})
			case 3:
				s.SetDrift(nil)
			case 4, 5:
				// History and sampler pruned together, as the machine does.
				cut := *now - rng.Uniform(0, 3*WindowSeconds)
				hist.Prune(cut)
				s.Prune(cut)
			case 6:
				s.Prune(*now - rng.Uniform(0, 2*WindowSeconds))
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
			sameAggregates(t, label, buf, s.AggregateRangeRef(hist, nodes, t0, t1))
			if q%100 == 0 && s.CachedRows() > 0 {
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
		if tick := int64(*now/SamplePeriod) - 1; s.store.live(s.store.slot(nodes[0], tick), tick, *now-WindowSeconds) {
			t.Fatal("window was not cold")
		}
		s.AggregateWindowInto(st.History(), nodes, *now, &agg)
	})
	if allocs != 0 {
		t.Fatalf("cold window allocated %.1f times per run; want 0", allocs)
	}
}
