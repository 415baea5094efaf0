// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events fire in strictly non-decreasing time order; ties are
// broken by scheduling order so that a run is reproducible given the same
// seed and the same sequence of Schedule calls. All stochastic components
// of the simulator draw from random sources derived from the engine seed
// (see rand.go), which makes whole-cluster experiments repeatable
// bit-for-bit.
//
// The queue is an inline index-aware 4-ary min-heap (see heap.go): no
// interface boxing, and Rearm re-times a queued event in place. A lone
// re-timing costs one O(log n) sift. A caller about to re-time a large
// share of the queue at one instant — a machine whose filesystem factor
// moved re-times every running job's completion — says so with
// BatchRearm, and the engine then only writes the new keys and restores
// heap order once, with a bottom-up O(n) pass, before the next event is
// popped. The pop order is a function of the queued (Time, band, seq)
// keys alone, so which of the two happened cannot be observed.
// Fire-and-forget callbacks can additionally be pooled with
// ScheduleOnce, which recycles the event allocation after the callback
// runs.
package sim

import (
	"fmt"
	"math"

	"rush/internal/obs"
)

// Event is a scheduled callback. An Event is created by Engine.Schedule or
// Engine.At and may be cancelled with Engine.Cancel before it fires.
type Event struct {
	// Time is the virtual time (in seconds) at which the event fires.
	Time float64
	// Fn is the callback invoked when the event fires.
	Fn func()

	seq       uint64 // tie-breaker: events at equal time fire in schedule order
	index     int    // position in the heap, -1 when not queued
	cancelled bool
	front     bool // front band: fires before normal events at equal time
	pooled    bool // recycled into the engine freelist after firing
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	rng    *Source
	fired  uint64
	free   []*Event // ScheduleOnce freelist

	// unordered is set by BatchRearm and cleared by settle: while it is
	// set the queue holds the right events with the right keys and index
	// fields but is not in heap order, and every mutation is O(1).
	unordered bool

	cScheduled *obs.Counter
	cFired     *obs.Counter
}

// New returns an engine with its clock at zero whose random streams derive
// from seed.
func New(seed int64) *Engine {
	return &Engine{rng: NewSource(seed)}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events processed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued. Cancel takes an
// event out of the queue at once, so cancelled events are never counted.
func (e *Engine) Pending() int { return len(e.events) }

// Source returns the engine's root random source.
func (e *Engine) Source() *Source { return e.rng }

// Instrument attaches metric counters for scheduled and fired events
// (either may be nil). Counting is pure bookkeeping: it never changes
// event order, timing, or randomness, so an instrumented run is
// bit-identical to an uninstrumented one.
func (e *Engine) Instrument(scheduled, fired *obs.Counter) {
	e.cScheduled, e.cFired = scheduled, fired
}

// Schedule registers fn to run delay seconds from now. A negative or NaN
// delay panics: silently clamping would hide causality bugs in the caller.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("sim: invalid schedule delay %v at t=%v", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// ScheduleOnce registers fn to run delay seconds from now on a pooled
// event: the Event is recycled into an engine-owned freelist right after
// the callback returns, so steady-state fire-and-forget timers allocate
// nothing. No handle is returned — a pooled event cannot be cancelled or
// rearmed. Timing and tie-break behaviour are exactly Schedule's.
func (e *Engine) ScheduleOnce(delay float64, fn func()) {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("sim: invalid schedule delay %v at t=%v", delay, e.now))
	}
	ev := e.newEvent()
	ev.Time = e.now + delay
	ev.Fn = fn
	ev.seq = e.seq
	e.seq++
	ev.pooled = true
	e.enqueue(ev)
	e.cScheduled.Inc()
}

// newEvent returns a zeroed event, recycled from the ScheduleOnce
// freelist when one is available.
func (e *Engine) newEvent() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// At registers fn to run at absolute virtual time t, which must not be in
// the past.
func (e *Engine) At(t float64, fn func()) *Event {
	return e.at(t, fn, false)
}

// AtFront registers fn to run at absolute virtual time t in the front
// band: among events at the same instant, front events fire before every
// normally scheduled one (front events order among themselves by
// schedule order as usual). The band exists for streaming workload
// feeders — a feeder re-armed mid-run must still deliver submissions at
// time t ahead of simulation events that were scheduled earlier for the
// same t, reproducing exactly the order an eager driver that pre-queued
// every submission before the run would have produced. Rearm preserves
// the band.
func (e *Engine) AtFront(t float64, fn func()) *Event {
	return e.at(t, fn, true)
}

func (e *Engine) at(t float64, fn func(), front bool) *Event {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: t=%v now=%v", t, e.now))
	}
	ev := &Event{Time: t, Fn: fn, seq: e.seq, front: front}
	e.seq++
	e.enqueue(ev)
	e.cScheduled.Inc()
	return ev
}

// enqueue adds ev to the queue, in heap order unless a batch has left
// the queue unordered anyway.
func (e *Engine) enqueue(ev *Event) {
	if e.unordered {
		e.events.add(ev)
	} else {
		e.events.push(ev)
	}
}

// Rearm re-times ev to fire at absolute virtual time t, which must not
// be in the past. It is equivalent to Cancel(ev) followed by
// At(t, ev.Fn) — the event receives a fresh sequence number, so its
// tie-break position among same-time events is exactly as if it had
// been newly scheduled — but reuses ev's allocation; a queued event is
// re-keyed in place (one O(log n) sift, no pop/push pair; inside a
// batch announced with BatchRearm, no sift at all). Rearm works on
// queued, cancelled, and already-fired events alike, which lets a
// long-lived process (a job's completion event, a periodic sampler, a
// streaming submission feeder) drive the whole simulation from a single
// Event value. The event keeps its band (At vs AtFront).
func (e *Engine) Rearm(ev *Event, t float64) {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: rearm into the past: t=%v now=%v", t, e.now))
	}
	ev.Time = t
	ev.seq = e.seq
	e.seq++
	ev.cancelled = false
	if ev.index < 0 {
		e.enqueue(ev)
	} else if !e.unordered {
		e.events.fix(ev.index)
	}
	e.cScheduled.Inc()
}

// batchShare is the batch size, as a share of the queue, from which one
// bottom-up rebuild of the heap is taken to be cheaper than one sift per
// re-timed event: a quarter. The rebuild costs about five comparisons
// for each of the queue's n/4 inner slots whatever the batch; a sift
// costs from two comparisons (the event stays put) to five per level.
const batchShare = 4

// BatchRearm announces that the caller is about to re-time up to n
// events with Rearm at the current instant. It is a statement about
// cost only and is equivalent to not making it: the Rearm calls that
// follow hand out the same sequence numbers, count the same
// sim_events_scheduled_total and leave the same (Time, band, seq) keys
// queued as they would have unannounced, and the order in which events
// fire is a function of those keys alone (see heap.go).
//
// When n is at least a quarter of the queue the engine stops keeping
// heap order: Rearm, At, ScheduleOnce and Cancel only write keys and
// move slots, each in O(1), until the next Step or RunUntil restores
// the order of the whole queue with one bottom-up pass before it pops.
// Several announcements before that Step — a job finishing and the
// scheduling pass it triggers starting three more are four contention
// changes — share the one rebuild. Below a quarter the call does
// nothing and each Rearm sifts as usual, so a caller may announce an
// upper bound it has already paid O(n) to walk: the rebuild is at most
// four times that.
func (e *Engine) BatchRearm(n int) {
	if n*batchShare >= len(e.events) {
		e.unordered = true
	}
}

// settle restores heap order if a batch suspended it. Every read of the
// queue's minimum goes through it.
func (e *Engine) settle() {
	if e.unordered {
		e.unordered = false
		e.events.heapify()
	}
}

// Cancel prevents ev from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	if ev.index < 0 {
		return
	}
	if e.unordered {
		e.events.take(ev.index)
	} else {
		e.events.remove(ev.index)
	}
}

// Step fires the next pending event and returns true, or returns false if
// no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	e.settle()
	// A queued event is never a cancelled one: Cancel dequeues at once
	// and Rearm clears the flag before it queues.
	ev := e.events.popMin()
	e.now = ev.Time
	e.fired++
	e.cFired.Inc()
	fn := ev.Fn
	if ev.pooled {
		// Recycle before the callback runs so fn can immediately
		// reuse the slot for its own ScheduleOnce; the event carries
		// no state the callback could observe.
		*ev = Event{}
		e.free = append(e.free, ev)
	}
	fn()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with Time <= t and then advances the clock to t.
// Events scheduled at exactly t do fire.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 {
		e.settle()
		if e.events[0].Time > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
