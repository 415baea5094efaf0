package simnet

import (
	"fmt"
	"sort"
	"testing"

	"rush/internal/cluster"
	"rush/internal/sim"
)

// refHistory is the oracle for the ring: a linear slice of epochs that
// allocates a copy of the pod loads for every mutation and copies the
// tail on every prune. It is slow and obviously right.
type refHistory struct {
	epochs []Epoch
}

func (h *refHistory) append(t float64, podNet []float64, core, fs float64) {
	cp := make([]float64, len(podNet))
	copy(cp, podNet)
	if n := len(h.epochs); n > 0 {
		if h.epochs[n-1].T == t {
			h.epochs[n-1].PodNet = cp
			h.epochs[n-1].Core = core
			h.epochs[n-1].FS = fs
			return
		}
		if h.epochs[n-1].T > t {
			panic(fmt.Sprintf("simnet: history time went backwards: %v after %v", t, h.epochs[n-1].T))
		}
	}
	h.epochs = append(h.epochs, Epoch{T: t, PodNet: cp, Core: core, FS: fs})
}

func (h *refHistory) windowInto(t0, t1 float64, buf []Slice) []Slice {
	out := buf
	if t1 <= t0 || len(h.epochs) == 0 {
		return out
	}
	i := sort.Search(len(h.epochs), func(i int) bool { return h.epochs[i].T > t0 })
	if i > 0 {
		i--
	}
	for ; i < len(h.epochs); i++ {
		e := h.epochs[i]
		start := e.T
		if i == 0 || start < t0 {
			start = t0
		}
		end := t1
		if i+1 < len(h.epochs) && h.epochs[i+1].T < t1 {
			end = h.epochs[i+1].T
		}
		if end <= start {
			if e.T >= t1 {
				break
			}
			continue
		}
		out = append(out, Slice{T0: start, T1: end, PodNet: e.PodNet, Core: e.Core, FS: e.FS})
		if end == t1 {
			break
		}
	}
	return out
}

func (h *refHistory) prune(t float64) {
	i := sort.Search(len(h.epochs), func(i int) bool { return h.epochs[i].T > t })
	if i > 0 {
		i--
	}
	if i > 0 {
		h.epochs = append([]Epoch(nil), h.epochs[i:]...)
	}
}

// sameSlices fails unless the two window results agree slice for slice
// and load for load.
func sameSlices(t *testing.T, what string, got, want []Slice) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slices, oracle has %d\n got %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.T0 != w.T0 || g.T1 != w.T1 || g.Core != w.Core || g.FS != w.FS || len(g.PodNet) != len(w.PodNet) {
			t.Fatalf("%s: slice %d = %+v, oracle has %+v", what, i, g, w)
		}
		for p := range w.PodNet {
			if g.PodNet[p] != w.PodNet[p] {
				t.Fatalf("%s: slice %d pod %d load %v, oracle has %v", what, i, p, g.PodNet[p], w.PodNet[p])
			}
		}
	}
}

// histOpStats counts what a run of runHistoryOps exercised, so a test
// can refuse a stream that never reached the interesting states.
type histOpStats struct {
	appends, collapses, prunes, queries int
	wrappedGrowths                      int // ring doubled while its head was not slot 0
	clampedQueries                      int // window began before the oldest live epoch
}

// runHistoryOps drives a ring and the oracle with the same operations,
// four bytes each (opcode and three operands), and compares everything
// the ring can be asked after every one of them.
func runHistoryOps(t *testing.T, pods int, ops []byte) histOpStats {
	t.Helper()
	var st histOpStats
	h := &History{pods: pods}
	ref := &refHistory{}
	loads := make([]float64, pods)
	now := 0.0
	record := func(b, c byte) {
		for p := range loads {
			loads[p] = float64((int(b)+p*int(c))%32) / 16
		}
		core, fs := float64(b%8)/8, float64(c%8)/8
		if h.n == len(h.ring) && h.head != 0 && ref.epochs[len(ref.epochs)-1].T != now {
			st.wrappedGrowths++
		}
		h.append(now, loads, core, fs)
		ref.append(now, loads, core, fs)
	}
	record(0, 0) // NewState records the idle epoch before anything else
	for step := 0; len(ops) >= 4; step++ {
		op, a, b, c := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		first := ref.epochs[0].T
		span := now - first
		what := fmt.Sprintf("step %d", step)
		switch op % 8 {
		case 0, 1, 2:
			now += float64(a%16+1) / 4
			record(b, c)
			st.appends++
		case 3:
			record(b, c)
			st.collapses++
		case 4:
			// From just before the oldest epoch to past the newest.
			cut := first - 1 + float64(a)/200*(span+2)
			h.Prune(cut)
			ref.prune(cut)
			st.prunes++
		default:
			t0 := first - 2 + float64(a)/240*(span+3)
			t1 := t0 + float64(int(b)-8)/4*float64(1+c%4) // empty and inverted for small b
			if t0 < first && t1 > t0 {
				st.clampedQueries++
			}
			sameSlices(t, what+" window", h.WindowInto(t0, t1, nil), ref.windowInto(t0, t1, nil))
			st.queries++
		}
		if h.Len() != len(ref.epochs) {
			t.Fatalf("%s: Len %d, oracle has %d", what, h.Len(), len(ref.epochs))
		}
		sameSlices(t, what+" whole history", h.WindowInto(first-1, now+1, nil), ref.windowInto(first-1, now+1, nil))
	}
	return st
}

// TestRingMatchesLinearHistory is the seeded property test of the ring
// against refHistory, under three pruning habits: never (the ring only
// grows), rarely (it grows with its head somewhere in the middle), and
// as often as a replay does (it settles).
func TestRingMatchesLinearHistory(t *testing.T) {
	rng := sim.NewSource(71)
	var total histOpStats
	for _, pruneEvery := range []int{0, 40, 6} {
		for round := 0; round < 8; round++ {
			ops := make([]byte, 4*1500)
			for i := 0; i < len(ops); i += 4 {
				op := byte(rng.Intn(8))
				if op%8 == 4 && (pruneEvery == 0 || rng.Intn(pruneEvery) != 0) {
					op = 0
				}
				ops[i], ops[i+1], ops[i+2], ops[i+3] = op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
			}
			st := runHistoryOps(t, 1+round%5, ops)
			total.appends += st.appends
			total.collapses += st.collapses
			total.prunes += st.prunes
			total.queries += st.queries
			total.wrappedGrowths += st.wrappedGrowths
			total.clampedQueries += st.clampedQueries
		}
	}
	if total.collapses < 1000 || total.prunes < 200 || total.wrappedGrowths < 5 || total.clampedQueries < 100 {
		t.Fatalf("weak streams: %+v", total)
	}
}

// FuzzHistoryOps lets the fuzzer write the operation stream of
// runHistoryOps. The seeds reach a same-instant collapse, a prune past
// the newest epoch, a query clamped before the first epoch, and a growth
// with the head in the middle of the ring.
func FuzzHistoryOps(f *testing.F) {
	f.Add([]byte{0, 3, 9, 2, 3, 0, 17, 5, 5, 0, 40, 1, 4, 255, 0, 0, 5, 0, 200, 3})
	wrapped := []byte{}
	for i := 0; i < 12; i++ {
		wrapped = append(wrapped, 0, byte(i), byte(3*i), 7)
	}
	wrapped = append(wrapped, 4, 120, 0, 0) // release the older half
	for i := 0; i < 40; i++ {
		wrapped = append(wrapped, 1, byte(i), byte(5*i), 3, 6, byte(6*i), 30, 2)
	}
	f.Add(wrapped)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<9 {
			ops = ops[:1<<9]
		}
		runHistoryOps(t, 3, ops)
	})
}

// TestWindowSlicesKeepValuesUntilPrune pins the aliasing contract:
// slices a window query returned keep their loads through later
// mutations, a wrap of the ring and a growth, because a slot is written
// again only after Prune released it.
func TestWindowSlicesKeepValuesUntilPrune(t *testing.T) {
	now := 0.0
	s := mustState(podTopo(), func() float64 { return now })
	h := s.History()
	step := func() {
		now++
		s.Apply(Contribution{PodNet: map[int]float64{int(now) % 4: 0.01 * now}, FS: 0.001})
	}
	for i := 0; i < 10; i++ {
		step()
	}
	h.Prune(7.5) // the head is now in the middle of the ring
	held := h.WindowInto(0, 100, nil)
	if len(held) != 4 {
		t.Fatalf("%d live slices after the prune, want 4", len(held))
	}
	want := make([][]float64, len(held))
	for i, sl := range held {
		want[i] = append([]float64(nil), sl.PodNet...)
	}
	check := func(when string) {
		t.Helper()
		for i, sl := range held[:len(held)-1] { // the newest epoch may still collapse
			for p, v := range sl.PodNet {
				if v != want[i][p] {
					t.Fatalf("%s: held slice %d pod %d reads %v, was %v", when, i, p, v, want[i][p])
				}
			}
		}
	}
	size := len(h.ring)
	for h.n < size {
		step()
		check("filling the ring past its end")
	}
	step()
	if len(h.ring) == size {
		t.Fatal("a full ring of live epochs did not grow")
	}
	for i := 0; i < 3*size; i++ {
		step()
		check("after the growth")
	}
	if got := h.WindowInto(0, 1000, nil); len(got) != h.Len() || h.Len() != 4+int(now)-10 {
		t.Fatalf("unpruned history lost epochs: %d slices, Len %d, %v mutations", len(got), h.Len(), now)
	}
}

// TestSameInstantMutationShowsInNewestEpochOnly pins that collapsing a
// second mutation into the newest epoch adds no epoch and leaves every
// older one as it was, read through slices held from before or afresh.
func TestSameInstantMutationShowsInNewestEpochOnly(t *testing.T) {
	now := 0.0
	s := mustState(podTopo(), func() float64 { return now })
	for now = 1; now <= 3; now++ {
		s.Apply(Contribution{PodNet: map[int]float64{0: 0.125}})
	}
	now = 3
	h := s.History()
	held := h.WindowInto(0, 10, nil)
	s.Apply(Contribution{PodNet: map[int]float64{0: 0.5, 2: 0.25}})
	if h.Len() != len(held) {
		t.Fatalf("same-instant mutation added an epoch: %d -> %d", len(held), h.Len())
	}
	want := [][2]float64{{0, 0}, {0.125, 0}, {0.25, 0}, {0.875, 0.25}}
	fresh := h.WindowInto(0, 10, nil)
	for i, w := range want {
		if got := [2]float64{fresh[i].PodNet[0], fresh[i].PodNet[2]}; got != w {
			t.Fatalf("epoch %d pods 0 and 2 read %v, want %v", i, got, w)
		}
		if got := [2]float64{held[i].PodNet[0], held[i].PodNet[2]}; i < 3 && got != w {
			t.Fatalf("held slice of final epoch %d reads %v, want %v", i, got, w)
		}
	}
}

// TestMutationAllocatesNothingInSteadyState is the allocation guard of
// the layer: once the ring has reached the size the prune cadence of a
// replay (every 300 simulated seconds, keeping 900) lets it settle at,
// Apply, Remove and Prune allocate nothing.
func TestMutationAllocatesNothingInSteadyState(t *testing.T) {
	now := 0.0
	s := mustState(cluster.Synthetic(4096, 512), func() float64 { return now })
	c := Contribution{PodNet: map[int]float64{1: 0.3, 5: 0.2}, Core: 0.1, FS: 0.05}
	nextPrune := 300.0
	cycle := func() {
		for i := 0; i < 50; i++ {
			now += 7
			s.Apply(c)
			now += 7
			s.Remove(c)
			if now >= nextPrune {
				s.History().Prune(now - 900)
				nextPrune += 300
			}
		}
	}
	for i := 0; i < 10; i++ {
		cycle() // warm-up: the ring grows to its fixed size
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("%v allocations per 100 mutations in steady state, want 0", allocs)
	}
}
