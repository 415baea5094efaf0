package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rush/internal/obs"
)

// TestRearmEquivalentToCancelAndAt pins Rearm's defining property: an
// engine that re-times events in place fires the identical sequence, at
// identical times, as one that cancels and schedules fresh events —
// including the tie-break position among same-time events.
func TestRearmEquivalentToCancelAndAt(t *testing.T) {
	run := func(rearm bool) []int {
		e := New(1)
		var order []int
		mk := func(id int, at float64) *Event {
			return e.At(at, func() { order = append(order, id) })
		}
		a := mk(1, 10)
		mk(2, 10)
		mk(3, 20)
		// Re-time event 1 from t=10 to t=20: it must now fire after
		// event 3 (fresh sequence number), exactly as a new schedule.
		if rearm {
			e.Rearm(a, 20)
		} else {
			e.Cancel(a)
			mk(1, 20)
		}
		e.Run()
		return order
	}
	got, want := run(true), run(false)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("rearm order %v, cancel+at order %v", got, want)
	}
	if got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("order = %v, want [2 3 1]", got)
	}
}

// TestRearmRevivesCancelledAndFired pins that Rearm works on events in
// any state: cancelled events revive, and an event may re-arm itself
// from inside its own callback (the periodic-event pooling pattern).
func TestRearmRevivesCancelledAndFired(t *testing.T) {
	e := New(1)
	fires := 0
	var ev *Event
	ev = e.Schedule(5, func() {
		fires++
		if fires < 3 {
			e.Rearm(ev, e.Now()+5)
		}
	})
	e.Cancel(ev)
	e.Rearm(ev, 5) // revive
	e.Run()
	if fires != 3 {
		t.Fatalf("fires = %d, want 3 (revival + 2 self-rearms)", fires)
	}
	if e.Now() != 15 {
		t.Fatalf("final time = %v, want 15", e.Now())
	}
}

// TestRearmIntoPastPanics pins the same causality guard At has.
func TestRearmIntoPastPanics(t *testing.T) {
	e := New(1)
	ev := e.At(10, func() {})
	e.RunUntil(8)
	defer func() {
		if recover() == nil {
			t.Fatal("rearm into the past must panic")
		}
	}()
	e.Rearm(ev, 5)
}

// TestRearmDoesNotAllocate pins the pooling contract: re-timing a
// queued event performs zero heap allocations, so completion
// rescheduling under contention churn is allocation-free.
func TestRearmDoesNotAllocate(t *testing.T) {
	e := New(1)
	ev := e.At(1e18, func() {})
	for i := 0; i < 64; i++ {
		// A small heap so Fix/Push have real work to do.
		e.At(1e17+float64(i), func() {})
	}
	n := testing.AllocsPerRun(1000, func() {
		e.Rearm(ev, 1e18)
	})
	if n != 0 {
		t.Fatalf("Rearm allocates %v times per op, want 0", n)
	}
}

// TestRearmCountsAsScheduled pins the metrics contract: a rearm is a
// schedule for accounting purposes, exactly like the Cancel+At pair it
// replaces minus the cancel.
func TestRearmCountsAsScheduled(t *testing.T) {
	e := New(1)
	ev := e.At(10, func() {})
	before := e.seq
	e.Rearm(ev, 12)
	if e.seq != before+1 {
		t.Fatalf("seq advanced by %d, want 1", e.seq-before)
	}
}

// batchTwin is one of the two engines TestBatchRearmEquivalentToRearm
// drives with the same calls; only one of them is ever told of a batch.
type batchTwin struct {
	eng   *Engine
	evs   []*Event
	fired []int
}

func newBatchTwin() *batchTwin {
	tw := &batchTwin{eng: New(3)}
	tw.eng.Instrument(&obs.Counter{}, &obs.Counter{})
	return tw
}

func (tw *batchTwin) add(t float64, front bool) {
	id := len(tw.evs)
	fn := func() { tw.fired = append(tw.fired, id) }
	if front {
		tw.evs = append(tw.evs, tw.eng.AtFront(t, fn))
	} else {
		tw.evs = append(tw.evs, tw.eng.At(t, fn))
	}
}

// TestBatchRearmEquivalentToRearm pins BatchRearm's contract at the
// engine's surface: two engines receive the identical randomized stream
// of At / AtFront / ScheduleOnce / Rearm / Cancel / Step calls, one of
// them with every run of Rearm calls announced (with the exact count,
// an overestimate, or an underestimate) and the other never told. Runs
// cover one event to the whole queue, front-band events, fired and
// cancelled events revived inside a run, Cancel and At inside a run,
// and times drawn from a few whole numbers so that ties inside and
// across runs fall to band and seq. After every run the paired events
// must carry equal (Time, seq), after every Step the engines must have
// fired the same event, and at the end the scheduled and fired counters
// must agree. While order is suspended every queued event must still
// know its slot and none may be a cancelled one.
func TestBatchRearmEquivalentToRearm(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	batched, plain := newBatchTwin(), newBatchTwin()
	both := func(f func(tw *batchTwin)) { f(batched); f(plain) }
	check := func(step int) {
		t.Helper()
		if len(batched.evs) != len(plain.evs) || len(batched.eng.events) != len(plain.eng.events) {
			t.Fatalf("step %d: %d/%d events, %d/%d pending", step,
				len(batched.evs), len(plain.evs), len(batched.eng.events), len(plain.eng.events))
		}
		for i, ev := range batched.evs {
			if p := plain.evs[i]; ev.Time != p.Time || ev.seq != p.seq || ev.Cancelled() != p.Cancelled() || (ev.index == 0) != (p.index == 0) {
				t.Fatalf("step %d: event %d is (t=%v seq=%d cancelled=%v queued=%v) batched, (t=%v seq=%d cancelled=%v queued=%v) plain",
					step, i, ev.Time, ev.seq, ev.Cancelled(), ev.index != 0, p.Time, p.seq, p.Cancelled(), p.index != 0)
			}
		}
		for slot, ev := range batched.eng.events {
			if ev.index-1 != slot {
				t.Fatalf("step %d: slot %d holds an event with slot %d", step, slot, ev.index-1)
			}
			if ev.cancelled {
				t.Fatalf("step %d: a cancelled event is queued at slot %d", step, slot)
			}
		}
		if len(batched.fired) != len(plain.fired) {
			t.Fatalf("step %d: fired %d batched, %d plain", step, len(batched.fired), len(plain.fired))
		}
		if n := len(plain.fired); n > 0 && batched.fired[n-1] != plain.fired[n-1] {
			t.Fatalf("step %d: batched fired event %d, plain fired event %d", step, batched.fired[n-1], plain.fired[n-1])
		}
	}
	when := func(coarse bool) float64 {
		now := plain.eng.Now()
		if coarse {
			return math.Ceil(now) + float64(rng.Intn(4))
		}
		return now + rng.Float64()*50
	}
	suspended := 0
	for step := 0; step < 8000; step++ {
		switch op := rng.Intn(12); {
		case (op < 3 && len(plain.evs) < 400) || len(plain.evs) == 0:
			at, front := when(rng.Intn(3) == 0), rng.Intn(6) == 0
			both(func(tw *batchTwin) { tw.add(at, front) })
		case op < 4:
			d := rng.Float64() * 20
			both(func(tw *batchTwin) { tw.eng.ScheduleOnce(d, func() { tw.fired = append(tw.fired, -1) }) })
		case op < 5:
			k := rng.Intn(len(plain.evs))
			both(func(tw *batchTwin) { tw.eng.Cancel(tw.evs[k]) })
		case op < 8:
			both(func(tw *batchTwin) { tw.eng.Step() })
		default:
			// A run of Rearm calls over a random subset, queued or not.
			n := 1 + rng.Intn(len(plain.evs))
			switch rng.Intn(4) {
			case 0:
				n = 1
			case 1:
				n = len(plain.evs)
			}
			announce := n
			switch rng.Intn(4) {
			case 0:
				announce = 2 * n
			case 1:
				announce = n / 2
			}
			batched.eng.BatchRearm(announce)
			if batched.eng.unordered {
				suspended++
			}
			coarse := rng.Intn(3) == 0
			for _, k := range rng.Perm(len(plain.evs))[:n] {
				at := when(coarse)
				both(func(tw *batchTwin) { tw.eng.Rearm(tw.evs[k], at) })
				switch rng.Intn(12) {
				case 0: // a kill in the middle of a run
					c := rng.Intn(len(plain.evs))
					both(func(tw *batchTwin) { tw.eng.Cancel(tw.evs[c]) })
				case 1: // a job start in the middle of a run
					if len(plain.evs) < 400 {
						at, front := when(coarse), rng.Intn(6) == 0
						both(func(tw *batchTwin) { tw.add(at, front) })
					}
				}
			}
		}
		check(step)
	}
	both(func(tw *batchTwin) { tw.eng.Run() })
	check(-1)
	if !slices.Equal(batched.fired, plain.fired) {
		t.Fatal("the engines drained in different orders")
	}
	if b, p := batched.eng.cScheduled.Value(), plain.eng.cScheduled.Value(); b != p || b == 0 {
		t.Fatalf("scheduled counter: %d batched, %d plain", b, p)
	}
	if b, p := batched.eng.cFired.Value(), plain.eng.cFired.Value(); b != p || int(b) != len(plain.fired) {
		t.Fatalf("fired counter: %d batched, %d plain, %d callbacks", b, p, len(plain.fired))
	}
	if suspended < 1000 {
		t.Fatalf("heap order was suspended in only %d runs; the test no longer exercises the batch", suspended)
	}
}

// TestBatchRearmBelowQuarterKeepsOrder pins the threshold: a batch
// smaller than a quarter of the queue leaves the heap ordered and every
// Rearm sifting, one of at least a quarter suspends order until the next
// Step, and RunUntil restores it before looking at the head.
func TestBatchRearmBelowQuarterKeepsOrder(t *testing.T) {
	e := New(1)
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.At(float64(10+i), func() {}))
	}
	e.BatchRearm(24)
	if e.unordered {
		t.Fatal("a batch of 24 in a queue of 100 suspended heap order")
	}
	e.BatchRearm(25)
	if !e.unordered {
		t.Fatal("a batch of 25 in a queue of 100 kept heap order")
	}
	// Reverse the queue without a sift, then look at the head.
	for i, ev := range evs {
		e.Rearm(ev, float64(200-i))
	}
	e.RunUntil(101)
	if e.unordered || e.Fired() != 1 || len(e.events) != 99 || evs[99].index != 0 {
		t.Fatalf("RunUntil(101) after a reversing batch: unordered=%v fired=%d pending=%d", e.unordered, e.Fired(), len(e.events))
	}
}

// TestBatchRearmDoesNotAllocate pins the no-buffer contract: announcing
// a batch over the whole queue, re-timing every queued event and
// stepping (which rebuilds the heap) performs zero heap allocations.
func TestBatchRearmDoesNotAllocate(t *testing.T) {
	e := New(1)
	var evs []*Event
	var tick *Event
	tick = e.At(1, func() { e.Rearm(tick, e.Now()+1) })
	for i := 0; i < 800; i++ {
		evs = append(evs, e.At(1e9+float64(i), func() {}))
	}
	round := 0
	n := testing.AllocsPerRun(200, func() {
		round++
		scale := 1 + 0.3*float64(round&1)
		e.BatchRearm(len(evs))
		for i, ev := range evs {
			e.Rearm(ev, (1e9+float64(i))*scale)
		}
		e.Step()
	})
	if n != 0 {
		t.Fatalf("a full-queue batch allocates %v times, want 0", n)
	}
}
