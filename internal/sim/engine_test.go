package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := New(1)
	var fired []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Fatalf("expected 5 events, got %d", len(fired))
	}
	if e.Now() != 5 {
		t.Fatalf("clock should rest at last event time, got %v", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := New(1)
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event should report cancelled")
	}
	// Cancelling twice is a no-op.
	e.Cancel(ev)
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	e := New(1)
	ran := false
	var ev *Event
	e.Schedule(1, func() { e.Cancel(ev) })
	ev = e.Schedule(2, func() { ran = true })
	e.Run()
	if ran {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New(1)
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("expected 2 events before 2.5, got %v", fired)
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock should advance to 2.5, got %v", e.Now())
	}
	e.RunUntil(4)
	if len(fired) != 4 {
		t.Fatalf("expected all 4 events by t=4, got %v", fired)
	}
}

func TestEngineScheduleWhileRunning(t *testing.T) {
	e := New(1)
	var fired []string
	e.Schedule(1, func() {
		fired = append(fired, "a")
		e.Schedule(1, func() { fired = append(fired, "b") })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("nested scheduling failed: %v", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("want now=2, got %v", e.Now())
	}
}

func TestEngineRejectsPastAndNaN(t *testing.T) {
	e := New(1)
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%v) should panic", d)
				}
			}()
			e.Schedule(d, func() {})
		}()
	}
}

// Property: regardless of the insertion order of delays, events pop in
// non-decreasing time order.
func TestEnginePopOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New(42)
		var fired []float64
		for _, r := range raw {
			d := float64(r) / 100.0
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceDeriveIsStable(t *testing.T) {
	a := NewSource(7).Derive("telemetry")
	b := NewSource(7).Derive("telemetry")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("derived streams with same name diverged")
		}
	}
}

func TestSourceDeriveIndependence(t *testing.T) {
	a := NewSource(7).Derive("alpha")
	b := NewSource(7).Derive("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical (%d/100 equal draws)", same)
	}
}

func TestSourceDeriveNDistinct(t *testing.T) {
	root := NewSource(7)
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		v := root.DeriveN("node", i).Float64()
		if seen[v] {
			t.Fatalf("DeriveN stream %d collides with an earlier stream", i)
		}
		seen[v] = true
	}
}

func TestSourceDistributionsSane(t *testing.T) {
	s := NewSource(3)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("normal mean off: %v", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Fatalf("normal std off: %v", std)
	}
	for i := 0; i < 1000; i++ {
		u := s.Uniform(3, 5)
		if u < 3 || u >= 5 {
			t.Fatalf("uniform out of range: %v", u)
		}
		if s.LogNormal(0, 0.1) <= 0 {
			t.Fatal("lognormal must be positive")
		}
		if s.Exponential(2) < 0 {
			t.Fatal("exponential must be non-negative")
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New(99)
		src := e.Source().Derive("x")
		var out []float64
		var step func()
		step = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.Schedule(src.Uniform(0.1, 2), step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("simulation not deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := New(1)
	if len(e.events) != 0 || e.Fired() != 0 {
		t.Fatal("fresh engine should be empty")
	}
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if len(e.events) != 2 {
		t.Fatalf("pending = %d", len(e.events))
	}
	e.Run()
	if e.Fired() != 2 || len(e.events) != 0 {
		t.Fatalf("fired=%d pending=%d", e.Fired(), len(e.events))
	}
}

func TestEngineRunUntilSkipsCancelledHead(t *testing.T) {
	e := New(1)
	ev := e.Schedule(1, func() { t.Fatal("cancelled event fired") })
	fired := false
	e.Schedule(2, func() { fired = true })
	e.Cancel(ev)
	e.RunUntil(3)
	if !fired {
		t.Fatal("later event should fire after cancelled head is skipped")
	}
}

func TestSourceHelpers(t *testing.T) {
	s := NewSource(5)
	if s.Seed() != 5 {
		t.Fatalf("seed = %d", s.Seed())
	}
	if s.Intn(10) < 0 || s.Intn(10) >= 10 {
		t.Fatal("Intn out of range")
	}
	if s.Int63() < 0 {
		t.Fatal("Int63 negative")
	}
	p := s.Rand().Perm(5)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("perm not a permutation: %v", p)
	}
	xs := []int{1, 2, 3, 4, 5}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatal("shuffle lost elements")
	}
	trues := 0
	for i := 0; i < 1000; i++ {
		if s.Bool(0.5) {
			trues++
		}
	}
	if trues < 400 || trues > 600 {
		t.Fatalf("Bool(0.5) fired %d/1000", trues)
	}
	if s.Rand() == nil {
		t.Fatal("Rand accessor nil")
	}
}

func TestHashDeterministicAndUniform(t *testing.T) {
	s := NewSource(9)
	if s.Hash64(1, 2) != s.Hash64(1, 2) {
		t.Fatal("hash not deterministic")
	}
	if s.Hash64(1, 2) == s.Hash64(2, 1) {
		t.Fatal("hash should be order sensitive")
	}
	// Different seeds give different hashes.
	if NewSource(1).Hash64(7) == NewSource(2).Hash64(7) {
		t.Fatal("hash should depend on seed")
	}
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		u := s.HashUnit(uint64(i))
		if u < 0 || u >= 1 {
			t.Fatalf("HashUnit out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / float64(n); mean < 0.47 || mean > 0.53 {
		t.Fatalf("HashUnit mean = %v", mean)
	}
}

// TestHashStateSplitsAnywhere checks the prefix form against the hash
// written out round by round: wherever the words are split between
// HashPrefix and Mix, Sum64 and Unit give what Hash64 and HashUnit give.
func TestHashStateSplitsAnywhere(t *testing.T) {
	s := NewSource(9)
	words := []uint64{3, 0x9e37 + 511, 0x7f4a - 20, 1 << 63}
	h := uint64(s.Seed())
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	want := splitmix64(h)
	if got := s.Hash64(words...); got != want {
		t.Fatalf("Hash64 = %#x, want %#x", got, want)
	}
	for split := 0; split <= len(words); split++ {
		st := s.HashPrefix(words[:split]...)
		for _, w := range words[split:] {
			st = st.Mix(w)
		}
		if got := st.Sum64(); got != want {
			t.Fatalf("split at %d: Sum64 = %#x, want %#x", split, got, want)
		}
		if got, unit := st.Unit(), s.HashUnit(words...); got != unit {
			t.Fatalf("split at %d: Unit = %v, want %v", split, got, unit)
		}
	}
}
