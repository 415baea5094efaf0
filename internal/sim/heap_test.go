package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refNode mirrors one queued event's ordering key for the container/heap
// reference implementation the 4-ary heap is differenced against.
type refNode struct {
	time  float64
	seq   uint64
	front bool
	id    int
	pos   int
}

// refHeap is the pre-fast-path event queue: a container/heap interface
// implementation with the same (Time, band, seq) total order. It exists
// only as the differential oracle for eventHeap.
type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].front != h[j].front {
		return h[i].front
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *refHeap) Push(x any) {
	n := x.(*refNode)
	n.pos = len(*h)
	*h = append(*h, n)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	nd.pos = -1
	*h = old[:n-1]
	return nd
}

// TestHeapMatchesContainerHeapReference drives the inline 4-ary heap and
// the container/heap reference with an identical randomized stream of
// push / re-key (Rearm's fix) / remove (Cancel) / pop / batch re-key
// operations — well over 10k events — and requires the pop sequences to
// be identical at every step. Because (time, front, seq) is a total
// order, any divergence is a sift bug, not a legitimate tie.
//
// A batch re-keys a random subset — one event, some, or the whole queue
// — the way a run of Rearm calls inside Engine.BatchRearm does: keys
// written in place with no sift, popped and removed events brought back
// by add, then one heapify; the reference gets the same keys one
// heap.Fix or heap.Push at a time. A third of the batches draw their
// times from a handful of whole numbers, so that equal times occur
// inside a batch, across batches and across bands, and the order falls
// to band and seq.
func TestHeapMatchesContainerHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fast eventHeap
	var ref refHeap

	type pair struct {
		ev *Event
		nd *refNode
	}
	var live, dead []pair
	var seq uint64
	nextID := 0

	push := func() {
		tm := rng.Float64() * 1000
		fr := rng.Intn(8) == 0
		ev := &Event{Time: tm, seq: seq, front: fr}
		nd := &refNode{time: tm, seq: seq, front: fr, id: nextID}
		seq++
		nextID++
		fast.push(ev)
		heap.Push(&ref, nd)
		live = append(live, pair{ev, nd})
	}
	checkIndex := func(step int) {
		t.Helper()
		for j, ev := range fast {
			if ev.index != j {
				t.Fatalf("step %d: slot %d holds event with index %d", step, j, ev.index)
			}
		}
		for _, p := range dead {
			if p.ev.index != -1 {
				t.Fatalf("step %d: dequeued event has index %d", step, p.ev.index)
			}
		}
	}
	batch := func(step int) {
		// Subset size: 1, the whole queue, or anything between; plus up
		// to a few dequeued events revived.
		k := 1 + rng.Intn(len(live))
		switch rng.Intn(4) {
		case 0:
			k = 1
		case 1:
			k = len(live)
		}
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		revive := 0
		if len(dead) > 0 {
			revive = rng.Intn(4)
			if revive > len(dead) {
				revive = len(dead)
			}
		}
		coarse := rng.Intn(3) == 0
		rekey := func(p pair) {
			tm := rng.Float64() * 1000
			if coarse {
				tm = float64(rng.Intn(6))
			}
			p.ev.Time, p.ev.seq = tm, seq
			p.nd.time, p.nd.seq = tm, seq
			seq++
		}
		// Interleave revivals with in-place re-keys, as a batch whose
		// caller re-arms fired and cancelled events among queued ones.
		for i, r := 0, 0; i < k || r < revive; {
			if r < revive && (i >= k || rng.Intn(2) == 0) {
				p := dead[len(dead)-1]
				dead = dead[:len(dead)-1]
				rekey(p)
				fast.add(p.ev)
				heap.Push(&ref, p.nd)
				live = append(live, p)
				r++
				continue
			}
			rekey(live[i])
			heap.Fix(&ref, live[i].nd.pos)
			i++
		}
		fast.heapify()
		checkIndex(step)
	}

	for i := 0; i < 40000; i++ {
		switch op := rng.Intn(11); {
		case op == 10 && len(live) > 0:
			batch(i)
		case op < 4 || len(live) == 0:
			push()
		case op < 6: // re-key in place, as Rearm does
			k := rng.Intn(len(live))
			p := live[k]
			tm := rng.Float64() * 1000
			p.ev.Time = tm
			p.ev.seq = seq
			p.nd.time = tm
			p.nd.seq = seq
			seq++
			fast.fix(p.ev.index)
			heap.Fix(&ref, p.nd.pos)
		case op < 7: // remove, as Cancel does
			k := rng.Intn(len(live))
			p := live[k]
			fast.remove(p.ev.index)
			heap.Remove(&ref, p.nd.pos)
			dead = append(dead, p)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // pop both, compare identity
			gotEv := fast.popMin()
			gotNd := heap.Pop(&ref).(*refNode)
			if gotEv.Time != gotNd.time || gotEv.seq != gotNd.seq || gotEv.front != gotNd.front {
				t.Fatalf("step %d: pop mismatch: fast (t=%v seq=%d front=%v) vs ref (t=%v seq=%d front=%v)",
					i, gotEv.Time, gotEv.seq, gotEv.front, gotNd.time, gotNd.seq, gotNd.front)
			}
			for k := range live {
				if live[k].ev == gotEv {
					dead = append(dead, live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}
		if len(fast) != len(ref) {
			t.Fatalf("step %d: size mismatch: fast %d vs ref %d", i, len(fast), len(ref))
		}
	}
	// Drain: the full residual order must match too.
	for len(fast) > 0 {
		gotEv := fast.popMin()
		gotNd := heap.Pop(&ref).(*refNode)
		if gotEv.Time != gotNd.time || gotEv.seq != gotNd.seq || gotEv.front != gotNd.front {
			t.Fatalf("drain: pop mismatch: fast (t=%v seq=%d) vs ref (t=%v seq=%d)",
				gotEv.Time, gotEv.seq, gotNd.time, gotNd.seq)
		}
	}
}

// TestHeapIndexInvariant checks that every queued event's index field
// always names its slot, across a randomized op stream — the invariant
// Rearm and Cancel rely on to address the heap in O(1).
func TestHeapIndexInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	var seq uint64
	for i := 0; i < 20000; i++ {
		switch {
		case rng.Intn(3) != 0 || len(h) == 0:
			h.push(&Event{Time: rng.Float64() * 100, seq: seq})
			seq++
		case rng.Intn(2) == 0:
			k := rng.Intn(len(h))
			h[k].Time = rng.Float64() * 100
			h[k].seq = seq
			seq++
			h.fix(k)
		default:
			h.popMin()
		}
		for j, ev := range h {
			if ev.index != j {
				t.Fatalf("step %d: slot %d holds event with index %d", i, j, ev.index)
			}
		}
	}
}

// TestEngineFrontBand pins the front band's semantics: an AtFront event
// re-armed mid-run to time t fires before normal events that were
// scheduled earlier for the same t, and front events order among
// themselves by schedule order.
func TestEngineFrontBand(t *testing.T) {
	e := New(1)
	var order []string
	e.At(10, func() { order = append(order, "normal-a") })
	e.At(10, func() { order = append(order, "normal-b") })
	f := e.AtFront(5, func() { order = append(order, "front") })
	e.At(5, func() {
		order = append(order, "mover")
		e.Rearm(f, 10) // re-armed after the normals were queued
	})
	e.Run()
	// At t=5 the front event fires first, then the mover re-arms it to
	// t=10 where it must again precede both normal events.
	want := []string{"front", "mover", "front", "normal-a", "normal-b"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestScheduleOncePools checks that ScheduleOnce recycles its events:
// steady-state one-shot timers reuse the freelist instead of growing it,
// and firing order matches Schedule's exactly.
func TestScheduleOncePools(t *testing.T) {
	e := New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			e.ScheduleOnce(1, tick)
		}
	}
	e.ScheduleOnce(1, tick)
	e.Run()
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	if len(e.free) != 1 {
		t.Fatalf("freelist holds %d events, want 1 (steady-state reuse)", len(e.free))
	}
}
