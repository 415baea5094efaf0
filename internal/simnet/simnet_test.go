package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"rush/internal/cluster"
	"rush/internal/sim"
)

func podTopo() cluster.Topology {
	return cluster.Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
}

// empty reports whether the change moved no contention factor at all.
func (c Change) empty() bool { return len(c.Pods) == 0 && !c.Core && !c.FS }

func mustState(topo cluster.Topology, now func() float64) *State {
	s, err := NewState(topo, now)
	if err != nil {
		panic(err)
	}
	return s
}

func TestApplyRemoveRoundTrip(t *testing.T) {
	now := 0.0
	s := mustState(podTopo(), func() float64 { return now })
	c := Contribution{PodNet: map[int]float64{0: 0.3, 2: 0.1}, FS: 0.2}
	s.Apply(c)
	if got := s.NetLoad(0); got != 0.3 {
		t.Fatalf("pod 0 load = %v", got)
	}
	if got := s.NetLoad(1); got != 0 {
		t.Fatalf("pod 1 load = %v", got)
	}
	if got := s.FSLoad(); got != 0.2 {
		t.Fatalf("fs load = %v", got)
	}
	s.Remove(c)
	if s.NetLoad(0) != 0 || s.NetLoad(2) != 0 || s.FSLoad() != 0 {
		t.Fatal("loads should return to zero")
	}
}

func TestRemoveTooMuchPanics(t *testing.T) {
	s := mustState(podTopo(), func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("removing unapplied load should panic")
		}
	}()
	s.Remove(Contribution{PodNet: map[int]float64{0: 0.5}})
}

func TestOverloadShape(t *testing.T) {
	if Overload(0) != 0 || Overload(0.65) != 0 {
		t.Fatal("overload below threshold should be zero")
	}
	if got := Overload(1.0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("overload at capacity = %v, want 1", got)
	}
	if Overload(0.8) >= Overload(0.95) {
		t.Fatal("overload must be increasing")
	}
	// Convex: the second half of the ramp hurts more than the first.
	if Overload(1.0)-Overload(0.825) <= Overload(0.825)-Overload(0.65) {
		t.Fatal("overload should be convex")
	}
}

// TestSubscribeChangesRunsOncePerMutation pins that every subscriber
// hears every mutation exactly once, whether or not a factor moved.
func TestSubscribeChangesRunsOncePerMutation(t *testing.T) {
	s := mustState(podTopo(), func() float64 { return 0 })
	var first, second []Change
	s.SubscribeChanges(func(ch Change) { first = append(first, ch) })
	s.SubscribeChanges(func(ch Change) { second = append(second, ch) })
	s.Apply(Contribution{FS: 0.1})
	s.Apply(Contribution{PodNet: map[int]float64{1: 0.2}})
	s.Remove(Contribution{FS: 0.1})
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("subscribers called %d and %d times, want 3 each", len(first), len(second))
	}
	for i, ch := range first {
		if !ch.empty() {
			t.Fatalf("mutation %d below the threshold reported %+v", i, ch)
		}
	}
}

func TestHistoryWindow(t *testing.T) {
	now := 0.0
	s := mustState(podTopo(), func() float64 { return now })
	now = 10
	s.Apply(Contribution{PodNet: map[int]float64{0: 0.5}})
	now = 20
	s.Apply(Contribution{PodNet: map[int]float64{0: 0.3}})
	now = 30
	s.Remove(Contribution{PodNet: map[int]float64{0: 0.8}})

	slices := s.History().WindowInto(5, 25, nil)
	if len(slices) != 3 {
		t.Fatalf("expected 3 slices, got %d: %+v", len(slices), slices)
	}
	// [5,10) load 0; [10,20) load .5; [20,25) load .8
	if slices[0].T0 != 5 || slices[0].T1 != 10 || slices[0].PodNet[0] != 0 {
		t.Fatalf("slice 0 wrong: %+v", slices[0])
	}
	if slices[1].T0 != 10 || slices[1].T1 != 20 || slices[1].PodNet[0] != 0.5 {
		t.Fatalf("slice 1 wrong: %+v", slices[1])
	}
	if slices[2].T0 != 20 || slices[2].T1 != 25 || slices[2].PodNet[0] != 0.8 {
		t.Fatalf("slice 2 wrong: %+v", slices[2])
	}
}

func TestHistoryWindowBeforeFirstEpoch(t *testing.T) {
	now := 100.0
	s := mustState(podTopo(), func() float64 { return now })
	slices := s.History().WindowInto(0, 50, nil)
	if len(slices) != 1 || slices[0].T0 != 0 || slices[0].T1 != 50 {
		t.Fatalf("pre-history window should clamp to first epoch: %+v", slices)
	}
}

func TestHistoryWindowEmptyAndInverted(t *testing.T) {
	s := mustState(podTopo(), func() float64 { return 0 })
	if got := s.History().WindowInto(10, 10, nil); got != nil {
		t.Fatalf("empty window should be nil, got %+v", got)
	}
	if got := s.History().WindowInto(10, 5, nil); got != nil {
		t.Fatalf("inverted window should be nil, got %+v", got)
	}
}

func TestHistorySameInstantCollapses(t *testing.T) {
	now := 0.0
	s := mustState(podTopo(), func() float64 { return now })
	now = 5
	s.Apply(Contribution{FS: 0.1})
	s.Apply(Contribution{FS: 0.2})
	s.Apply(Contribution{PodNet: map[int]float64{0: 0.4}})
	if got := s.History().Len(); got != 2 {
		t.Fatalf("same-instant mutations should collapse to one epoch: len=%d", got)
	}
	sl := s.History().WindowInto(5, 6, nil)
	if len(sl) != 1 || math.Abs(sl[0].FS-0.3) > 1e-12 || sl[0].PodNet[0] != 0.4 {
		t.Fatalf("collapsed epoch holds wrong state: %+v", sl)
	}
}

func TestHistoryPrune(t *testing.T) {
	now := 0.0
	s := mustState(podTopo(), func() float64 { return now })
	for i := 1; i <= 10; i++ {
		now = float64(i * 10)
		s.Apply(Contribution{FS: 0.01})
	}
	s.History().Prune(55)
	if s.History().Len() >= 11 {
		t.Fatalf("prune did not drop epochs: len=%d", s.History().Len())
	}
	// Window at the prune point must still resolve.
	sl := s.History().WindowInto(55, 65, nil)
	if len(sl) == 0 {
		t.Fatal("window at prune point is empty")
	}
}

// Property: window slices are contiguous, ordered, and exactly cover the
// requested interval.
func TestHistoryWindowCoverageProperty(t *testing.T) {
	f := func(changes []uint8, a, b uint8) bool {
		now := 0.0
		s := mustState(podTopo(), func() float64 { return now })
		for _, c := range changes {
			now += float64(c%20 + 1)
			s.Apply(Contribution{FS: 0.001})
		}
		t0, t1 := float64(a), float64(a)+float64(b)+1
		slices := s.History().WindowInto(t0, t1, nil)
		if len(slices) == 0 {
			return false
		}
		if slices[0].T0 != t0 || slices[len(slices)-1].T1 != t1 {
			return false
		}
		for i := 1; i < len(slices); i++ {
			if slices[i].T0 != slices[i-1].T1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProbesReflectCongestion(t *testing.T) {
	topo := podTopo()
	s := mustState(topo, func() float64 { return 0 })
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
	calm := RunProbes(s, alloc, sim.NewSource(1).Derive("probe"))
	s.Apply(Contribution{PodNet: map[int]float64{0: 1.1}})
	hot := RunProbes(s, alloc, sim.NewSource(1).Derive("probe"))
	for i := range calm.SendWait {
		if hot.SendWait[i] <= calm.SendWait[i] {
			t.Fatal("congestion should inflate Send wait")
		}
		if hot.AllReduceWait[i] <= calm.AllReduceWait[i] {
			t.Fatal("congestion should inflate AllReduce wait")
		}
	}
	if hot.Duration() <= calm.Duration() {
		t.Fatal("probe duration should grow under congestion")
	}
}

func TestProbeDeterminism(t *testing.T) {
	s := mustState(podTopo(), func() float64 { return 0 })
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 5, 9}}
	a := RunProbes(s, alloc, sim.NewSource(7).Derive("p"))
	b := RunProbes(s, alloc, sim.NewSource(7).Derive("p"))
	for i := range a.SendWait {
		if a.SendWait[i] != b.SendWait[i] || a.RecvWait[i] != b.RecvWait[i] {
			t.Fatal("probes not deterministic under the same stream")
		}
	}
}

func TestStateAccessors(t *testing.T) {
	s := mustState(podTopo(), func() float64 { return 0 })
	if s.Topology().Nodes != 64 {
		t.Fatal("topology accessor wrong")
	}
	s.Apply(Contribution{Core: 1.2, FS: 1.1})
	if s.CoreLoad() != 1.2 || s.FSLoad() != 1.1 {
		t.Fatal("core/fs loads wrong")
	}
	if s.CoreOverload() <= 0 || s.FSOverload() <= 0 {
		t.Fatal("overloads should be positive beyond capacity")
	}
	s.Remove(Contribution{Core: 1.2, FS: 1.1})
	if s.CoreOverload() != 0 || s.FSOverload() != 0 {
		t.Fatal("overloads should clear")
	}
}

func TestMutatePanicsOnBadPodAndNegativeCore(t *testing.T) {
	s := mustState(podTopo(), func() float64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range pod should panic")
			}
		}()
		s.Apply(Contribution{PodNet: map[int]float64{99: 0.1}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative core removal should panic")
			}
		}()
		s.Remove(Contribution{Core: 0.5})
	}()
	for name, pods := range map[string][]int{
		"descending pods":     {2, 1},
		"a duplicate pod":     {1, 1},
		"a pod past the last": {0, 4},
		"a negative pod":      {-1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a list with %s should panic", name)
				}
			}()
			s.ApplyLoads(pods, []float64{0.1, 0.1}, 0, 0)
		}()
		if s.NetLoad(0) != 0 || s.NetLoad(1) != 0 || s.NetLoad(2) != 0 {
			t.Fatalf("a list with %s moved a load before panicking", name)
		}
	}
}

func TestProbeIdleDuration(t *testing.T) {
	idle := ProbeIdleDuration()
	if idle <= 0 {
		t.Fatalf("idle duration = %v", idle)
	}
	// A calm probe's mean per-node time should sit near the idle value.
	s := mustState(podTopo(), func() float64 { return 0 })
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
	res := RunProbes(s, alloc, sim.NewSource(1).Derive("p"))
	var sum float64
	for i := range res.SendWait {
		sum += res.SendWait[i] + res.RecvWait[i] + res.AllReduceWait[i]
	}
	mean := sum / float64(len(res.SendWait))
	if mean < idle*0.7 || mean > idle*1.3 {
		t.Fatalf("calm probe mean %v far from idle %v", mean, idle)
	}
}

func TestHistoryTimeRegressionPanics(t *testing.T) {
	now := 10.0
	s := mustState(podTopo(), func() float64 { return now })
	now = 20
	s.Apply(Contribution{FS: 0.1})
	now = 5
	defer func() {
		if recover() == nil {
			t.Fatal("history must reject time going backwards")
		}
	}()
	s.Apply(Contribution{FS: 0.1})
}
