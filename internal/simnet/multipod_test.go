package simnet

import (
	"math"
	"reflect"
	"testing"

	"rush/internal/cluster"
	"rush/internal/sim"
)

// multiPodState builds a state over an 8-pod synthetic machine with a
// controllable clock.
func multiPodState(t *testing.T) (*State, *float64) {
	t.Helper()
	now := new(float64)
	s, err := NewState(cluster.Synthetic(4096, 512), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	return s, now
}

// TestCrossPodContributionAccounting pins the separation of the three
// resource dimensions: a contribution spanning pods lands its PodNet
// loads in exactly the named pods, its Core load on the core links, and
// its FS load on the filesystem — nothing leaks across pods.
func TestCrossPodContributionAccounting(t *testing.T) {
	s, _ := multiPodState(t)
	c := Contribution{
		PodNet: map[int]float64{0: 0.3, 3: 0.5, 7: 0.1},
		Core:   0.4,
		FS:     0.25,
	}
	s.Apply(c)
	want := map[int]float64{0: 0.3, 3: 0.5, 7: 0.1}
	for p := 0; p < s.Topology().Pods(); p++ {
		if got := s.NetLoad(p); got != want[p] {
			t.Errorf("pod %d load = %v, want %v", p, got, want[p])
		}
	}
	if s.CoreLoad() != 0.4 || s.FSLoad() != 0.25 {
		t.Errorf("core/fs = %v/%v, want 0.4/0.25", s.CoreLoad(), s.FSLoad())
	}
	// Overloads are per-dimension: pod 3 is below threshold, so its
	// contention factor is zero even though core is loaded.
	if s.NetOverload(3) != 0 {
		t.Errorf("pod 3 overload = %v, want 0 (below threshold)", s.NetOverload(3))
	}
	s.Remove(c)
	for p := 0; p < s.Topology().Pods(); p++ {
		if s.NetLoad(p) != 0 {
			t.Errorf("pod %d load = %v after removal, want 0", p, s.NetLoad(p))
		}
	}
	if s.CoreLoad() != 0 || s.FSLoad() != 0 {
		t.Errorf("core/fs nonzero after removal: %v/%v", s.CoreLoad(), s.FSLoad())
	}
}

// TestHistoryWindowSpansPods pins that window queries reproduce the
// per-pod load trajectory when different pods mutate at different
// times: each returned slice carries the full pod vector of its epoch.
func TestHistoryWindowSpansPods(t *testing.T) {
	s, now := multiPodState(t)
	*now = 10
	s.Apply(Contribution{PodNet: map[int]float64{1: 0.8}})
	*now = 20
	s.Apply(Contribution{PodNet: map[int]float64{5: 0.6}, FS: 0.3})
	*now = 30
	s.Remove(Contribution{PodNet: map[int]float64{1: 0.8}})

	sl := s.History().WindowInto(5, 35, nil)
	if len(sl) != 4 {
		t.Fatalf("window slice count = %d, want 4", len(sl))
	}
	type slice struct {
		t0, t1, p1, p5, fs float64
	}
	var got []slice
	for _, w := range sl {
		got = append(got, slice{w.T0, w.T1, w.PodNet[1], w.PodNet[5], w.FS})
	}
	want := []slice{
		{5, 10, 0, 0, 0},
		{10, 20, 0.8, 0, 0},
		{20, 30, 0.8, 0.6, 0.3},
		{30, 35, 0, 0.6, 0.3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window = %+v, want %+v", got, want)
	}
}

// TestChangeDirtinessIsOverloadLevel pins the fast path's contract: a
// Change names a pod (or global) exactly when its contention factor
// moved, not merely its raw load. Below-threshold churn is invisible to
// change subscribers while remaining fully recorded in the raw loads and
// the history.
func TestChangeDirtinessIsOverloadLevel(t *testing.T) {
	s, now := multiPodState(t)
	var last *Change
	s.SubscribeChanges(func(ch Change) {
		cp := ch
		cp.Pods = append([]int(nil), ch.Pods...)
		last = &cp
	})

	// Below threshold: raw load moves, no contention factor does.
	*now = 1
	s.Apply(Contribution{PodNet: map[int]float64{2: 0.5}, Core: 0.1, FS: 0.2})
	if last == nil || !last.Empty() {
		t.Fatalf("below-threshold change = %+v, want empty", last)
	}
	if s.NetLoad(2) != 0.5 || s.CoreLoad() != 0.1 || s.FSLoad() != 0.2 {
		t.Fatalf("raw loads must still move: pod2=%v core=%v fs=%v",
			s.NetLoad(2), s.CoreLoad(), s.FSLoad())
	}
	if s.History().Len() < 2 {
		t.Fatal("history must record below-threshold epochs")
	}

	// Crossing the threshold dirties exactly the crossing pod.
	s.Apply(Contribution{PodNet: map[int]float64{2: 0.4, 6: 0.1}})
	if last == nil || !reflect.DeepEqual(last.Pods, []int{2}) || last.Core || last.FS {
		t.Fatalf("threshold crossing change = %+v, want pods [2] only", last)
	}

	// Movement entirely above the threshold is always dirty (the factor
	// changes continuously there).
	s.Apply(Contribution{PodNet: map[int]float64{2: 0.05}})
	if last == nil || !reflect.DeepEqual(last.Pods, []int{2}) {
		t.Fatalf("above-threshold change = %+v, want pods [2]", last)
	}

	// A no-op contribution is an empty change, not a missing one.
	last = nil
	s.Apply(Contribution{})
	if last == nil || !last.Empty() {
		t.Fatalf("no-op change = %+v, want delivered and empty", last)
	}

	// Globals dirty independently of pods.
	s.Apply(Contribution{Core: 0.7, FS: 0.6})
	if last == nil || len(last.Pods) != 0 || !last.Core || !last.FS {
		t.Fatalf("global change = %+v, want core+fs only", last)
	}
}

// TestIncrementalMatchesFullRecomputation is the property test for the
// dirty-pod protocol: over a long random mutation sequence on a
// multi-pod machine, maintaining per-pod contention factors only from
// Change notifications must track a full recomputation from raw state
// exactly — same values, bit for bit, and no missed transitions.
func TestIncrementalMatchesFullRecomputation(t *testing.T) {
	s, now := multiPodState(t)
	pods := s.Topology().Pods()
	rng := sim.NewSource(7)

	// Incrementally maintained factors, updated only on notification.
	inc := make([]float64, pods)
	var incCore, incFS float64
	s.SubscribeChanges(func(ch Change) {
		for _, p := range ch.Pods {
			inc[p] = s.NetOverload(p)
		}
		if ch.Core {
			incCore = s.CoreOverload()
		}
		if ch.FS {
			incFS = s.FSOverload()
		}
	})

	var applied []Contribution
	for step := 0; step < 2000; step++ {
		*now = float64(step)
		if len(applied) > 0 && rng.Bool(0.4) {
			i := rng.Intn(len(applied))
			s.Remove(applied[i])
			applied[i] = applied[len(applied)-1]
			applied = applied[:len(applied)-1]
		} else {
			c := Contribution{PodNet: map[int]float64{}}
			for k := 0; k < 1+rng.Intn(3); k++ {
				c.PodNet[rng.Intn(pods)] += rng.Uniform(0, 0.5)
			}
			if rng.Bool(0.3) {
				c.Core = rng.Uniform(0, 0.3)
			}
			if rng.Bool(0.3) {
				c.FS = rng.Uniform(0, 0.4)
			}
			s.Apply(c)
			applied = append(applied, c)
		}
		// Full recomputation from raw loads.
		for p := 0; p < pods; p++ {
			if full := Overload(s.NetLoad(p)); full != inc[p] {
				t.Fatalf("step %d pod %d: incremental %v != full %v", step, p, inc[p], full)
			}
		}
		if full := Overload(s.CoreLoad()); full != incCore {
			t.Fatalf("step %d core: incremental %v != full %v", step, incCore, full)
		}
		if full := Overload(s.FSLoad()); full != incFS {
			t.Fatalf("step %d fs: incremental %v != full %v", step, incFS, full)
		}
	}
	if math.IsNaN(incCore) || math.IsNaN(incFS) {
		t.Fatal("factors went NaN")
	}
}

// TestReentrantMutationPanics pins the subscriber contract: mutating the
// state from inside a callback would corrupt the notification scratch,
// so it must fail loudly.
func TestReentrantMutationPanics(t *testing.T) {
	s, _ := multiPodState(t)
	s.SubscribeChanges(func(Change) {
		s.Apply(Contribution{FS: 0.1})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant Apply must panic")
		}
	}()
	s.Apply(Contribution{FS: 0.2})
}

// TestCachedFactorsTrackLoads is the property test for the contention
// factors the state keeps beside its loads: after every one of a long
// random sequence of Apply and Remove calls — removals in an order
// other than the applications', so that float residues around zero
// appear and the clamp fires — every factor the state serves equals
// Overload of the load it serves, and the Change handed to subscribers
// names exactly the resources whose factor differs from before the
// call: no resource missed, none named whose factor stood still.
func TestCachedFactorsTrackLoads(t *testing.T) {
	s, now := multiPodState(t)
	pods := s.Topology().Pods()
	rng := sim.NewSource(23)

	var got Change
	var gotPods []int
	notified := 0
	s.SubscribeChanges(func(ch Change) {
		notified++
		gotPods = append(gotPods[:0], ch.Pods...)
		got = ch
	})

	// Loads are drawn from multiples of a tenth: their sums sit on and
	// around the 0.65 threshold and leave residues when withdrawn in
	// another order.
	tenth := func(max int) float64 { return float64(rng.Intn(max+1)) / 10 }
	var applied []Contribution
	clamped, moved, still := 0, 0, 0
	for step := 0; step < 6000; step++ {
		*now = float64(step)
		before := make([]float64, pods)
		for p := range before {
			before[p] = Overload(s.NetLoad(p))
		}
		beforeCore, beforeFS := Overload(s.CoreLoad()), Overload(s.FSLoad())

		// The population swings between nothing and a dozen sources, so
		// loads keep returning to zero, where the residues are.
		pRemove := 0.3
		if len(applied) > 6+int(step/200)%8 {
			pRemove = 0.7
		}
		if len(applied) > 0 && rng.Bool(pRemove) {
			i := rng.Intn(len(applied))
			c := applied[i]
			for p, x := range c.PodNet {
				if s.NetLoad(p)-x < 0 {
					clamped++
				}
			}
			if s.CoreLoad()-c.Core < 0 || s.FSLoad()-c.FS < 0 {
				clamped++
			}
			s.Remove(c)
			applied[i] = applied[len(applied)-1]
			applied = applied[:len(applied)-1]
		} else {
			c := Contribution{PodNet: map[int]float64{}}
			for k := rng.Intn(4); k > 0; k-- {
				c.PodNet[rng.Intn(pods)] += tenth(4)
			}
			if rng.Bool(0.4) {
				c.Core = tenth(3)
			}
			if rng.Bool(0.4) {
				c.FS = tenth(3)
			}
			s.Apply(c)
			applied = append(applied, c)
		}

		if notified != step+1 {
			t.Fatalf("step %d: %d notifications", step, notified)
		}
		var wantPods []int
		for p := 0; p < pods; p++ {
			full := Overload(s.NetLoad(p))
			if s.NetOverload(p) != full {
				t.Fatalf("step %d pod %d: cached factor %v, Overload(%v) = %v", step, p, s.NetOverload(p), s.NetLoad(p), full)
			}
			if full != before[p] {
				wantPods = append(wantPods, p)
			}
		}
		if full := Overload(s.CoreLoad()); s.CoreOverload() != full {
			t.Fatalf("step %d core: cached factor %v, Overload(%v) = %v", step, s.CoreOverload(), s.CoreLoad(), full)
		}
		if full := Overload(s.FSLoad()); s.FSOverload() != full {
			t.Fatalf("step %d fs: cached factor %v, Overload(%v) = %v", step, s.FSOverload(), s.FSLoad(), full)
		}
		if !reflect.DeepEqual(gotPods, wantPods) && (len(gotPods) > 0 || len(wantPods) > 0) {
			t.Fatalf("step %d: change names pods %v, factors moved in %v", step, gotPods, wantPods)
		}
		if want := s.CoreOverload() != beforeCore; got.Core != want {
			t.Fatalf("step %d: change.Core = %v, core factor moved = %v", step, got.Core, want)
		}
		if want := s.FSOverload() != beforeFS; got.FS != want {
			t.Fatalf("step %d: change.FS = %v, fs factor moved = %v", step, got.FS, want)
		}
		if got.Empty() {
			still++
		} else {
			moved++
		}
	}
	if clamped < 20 || moved < 500 || still < 500 {
		t.Fatalf("weak sequence: %d clamped removals, %d mutations moved a factor, %d moved none", clamped, moved, still)
	}
}
