package sim

import (
	"container/heap"
	"testing"
)

// opsHarness drives an Engine and a container/heap model of it (the
// refHeap of heap_test.go) with the same operations, decoded from bytes,
// and checks that every event fires at the model's minimum, at its
// time, with the model's sequence number. BeforeRead callbacks act on
// both sides when the engine runs them; the harness checks that they run
// at the instant that registered them and before the next event fires.
type opsHarness struct {
	t    *testing.T
	data []byte
	eng  *Engine

	seq   uint64 // the model's next sequence number
	ref   refHeap
	evs   []*Event   // by id
	nodes []*refNode // by id, parallel to evs

	pending  int      // callbacks registered and not yet run
	inFire   []func() // what the next firing event does
	inBatch  int      // re-timings of queued events made while a batch suspended heap order
	handlers int      // firings of events whose Handler is not a Func
}

// handler is a Handler that is not a Func, as a long-lived owner of an
// event is: every third normal-band event the harness adds is a zero
// Event carrying one, queued with Rearm.
type handler struct {
	h  *opsHarness
	id int
}

func (x *handler) Fire() {
	x.h.handlers++
	x.h.fired(x.id)
}

// next returns the next input byte, or 0 once the input is spent.
func (h *opsHarness) next() byte {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return b
}

// offset decodes a delay: whole seconds from a few values, so that ties
// fall to band and sequence, or a fraction.
func (h *opsHarness) offset() float64 {
	b := h.next()
	if b&1 == 0 {
		return float64(b >> 1 & 3)
	}
	return float64(b>>1) * 0.37
}

// pick decodes one of the events made so far.
func (h *opsHarness) pick() int { return int(h.next()) % len(h.evs) }

// add queues a new event at t on both sides.
func (h *opsHarness) add(t float64, front bool) {
	id := len(h.evs)
	fn := func() { h.fired(id) }
	var ev *Event
	switch {
	case front:
		ev = h.eng.AtFront(t, fn)
	case id%3 == 2:
		ev = &Event{Fn: &handler{h, id}}
		h.eng.Rearm(ev, t)
	default:
		ev = h.eng.At(t, fn)
	}
	h.track(ev, t, front)
}

// track gives the model a node for the event just queued.
func (h *opsHarness) track(ev *Event, t float64, front bool) {
	nd := &refNode{time: t, seq: h.seq, front: front, id: len(h.evs)}
	h.seq++
	heap.Push(&h.ref, nd)
	h.evs, h.nodes = append(h.evs, ev), append(h.nodes, nd)
}

// rearm re-times event id to t on both sides.
func (h *opsHarness) rearm(id int, t float64) {
	if h.eng.unordered && h.evs[id].index != 0 {
		h.inBatch++
	}
	h.eng.Rearm(h.evs[id], t)
	nd := h.nodes[id]
	nd.time, nd.seq = t, h.seq
	h.seq++
	if nd.pos >= 0 {
		heap.Fix(&h.ref, nd.pos)
	} else {
		heap.Push(&h.ref, nd)
	}
}

// fired is every event's callback: the model's minimum must be the
// event, at the engine's clock, and no callback may still be pending.
func (h *opsHarness) fired(id int) {
	h.t.Helper()
	if h.pending != 0 {
		h.t.Fatalf("event %d fired with %d BeforeRead callbacks not run", id, h.pending)
	}
	want := heap.Pop(&h.ref).(*refNode)
	ev := h.evs[id]
	if want.id != id || ev.Time != want.time || ev.seq != want.seq || h.eng.Now() != want.time {
		h.t.Fatalf("fired event %d (t=%v seq=%d) at %v; the model's minimum is event %d (t=%v seq=%d)",
			id, ev.Time, ev.seq, h.eng.Now(), want.id, want.time, want.seq)
	}
	do := h.inFire
	h.inFire = nil
	for _, f := range do {
		f()
	}
}

// callback is a decoded BeforeRead callback: it announces a batch,
// re-times some events, may queue one more and may register a further
// callback.
type callback struct {
	ids     []int
	offs    []float64
	extra   bool
	at      float64
	chained *callback
}

// decodeCallback decodes a callback re-timing up to seven events.
func (h *opsHarness) decodeCallback(depth int) *callback {
	cb := &callback{}
	for n := h.next() % 8; n > 0; n-- {
		cb.ids = append(cb.ids, h.pick())
		cb.offs = append(cb.offs, h.offset())
	}
	b := h.next()
	if cb.extra = b&1 != 0; cb.extra {
		cb.at = h.offset()
	}
	if b&2 != 0 && depth < 3 {
		cb.chained = h.decodeCallback(depth + 1)
	}
	return cb
}

// register hands cb to the engine, checking that it runs at this
// instant.
func (h *opsHarness) register(cb *callback) {
	registered := h.eng.Now()
	h.pending++
	h.eng.BeforeRead(func() {
		h.pending--
		now := h.eng.Now()
		if now != registered {
			h.t.Fatalf("a BeforeRead callback registered at %v ran at %v", registered, now)
		}
		h.eng.BatchRearm(len(cb.ids))
		for i, id := range cb.ids {
			h.rearm(id, now+cb.offs[i])
		}
		if cb.extra {
			h.add(now+cb.at, false)
		}
		if cb.chained != nil {
			h.register(cb.chained)
		}
	})
}

// op decodes and performs one operation; it reports false once the
// input is spent.
func (h *opsHarness) op() bool {
	if len(h.data) == 0 {
		return false
	}
	code := h.next() % 10
	if len(h.evs) == 0 && (code >= 3 && code <= 6 || code == 9) {
		code = 1
	}
	now := h.eng.Now()
	switch code {
	case 0:
		d := h.offset()
		id := len(h.evs)
		h.track(h.eng.Schedule(d, func() { h.fired(id) }), now+d, false)
	case 1, 2:
		h.add(now+h.offset(), code == 2)
	case 3:
		h.rearm(h.pick(), now+h.offset())
	case 4:
		id := h.pick()
		h.eng.Cancel(h.evs[id])
		if nd := h.nodes[id]; nd.pos >= 0 {
			heap.Remove(&h.ref, nd.pos)
		}
	case 5:
		h.eng.BatchRearm(int(h.next()))
	case 6:
		h.register(h.decodeCallback(0))
	case 7:
		// A Step that fires runs the pending callbacks first (fired
		// checks it); one that does not must still have run them.
		if !h.eng.Step() && (h.ref.Len() != 0 || h.pending != 0) {
			h.t.Fatalf("Step fired nothing with %d events in the model, %d callbacks pending", h.ref.Len(), h.pending)
		}
	case 8:
		until := now + h.offset()
		h.eng.RunUntil(until)
		if h.pending != 0 || (h.ref.Len() > 0 && h.ref[0].time <= until) || h.eng.Now() != until {
			h.t.Fatalf("RunUntil(%v): %d callbacks pending, %d events in the model, clock %v", until, h.pending, h.ref.Len(), h.eng.Now())
		}
	case 9:
		// The next event to fire re-times an event and registers a
		// callback, as a machine's contention change does inside a
		// step.
		id, off := h.pick(), h.offset()
		cb := h.decodeCallback(0)
		h.inFire = append(h.inFire, func() {
			h.rearm(id, h.eng.Now()+off)
			h.register(cb)
		})
	}
	if len(h.eng.events) != h.ref.Len() {
		h.t.Fatalf("engine holds %d events, the model %d", len(h.eng.events), h.ref.Len())
	}
	return true
}

// runEngineOps plays data through a fresh harness, drains both sides
// and returns the harness for its counts.
func runEngineOps(t *testing.T, data []byte) *opsHarness {
	h := &opsHarness{t: t, data: data, eng: New(1)}
	for h.op() {
	}
	h.inFire = nil
	h.eng.Run()
	if h.ref.Len() != 0 || h.pending != 0 {
		t.Fatalf("drained engine leaves %d events in the model, %d callbacks pending", h.ref.Len(), h.pending)
	}
	return h
}

// engineOpsSeeds are FuzzEngineOps's seed inputs. The first queues
// events, then from inside a firing event registers a callback that
// re-times three of them inside a batch.
var engineOpsSeeds = [][]byte{
	{1, 2, 1, 4, 1, 6, 2, 0, 9, 6, 3, 0, 2, 1, 4, 2, 6, 1, 7, 7, 7, 7},
	{0, 1, 0, 5, 1, 9, 2, 4, 5, 200, 3, 1, 11, 3, 2, 13, 6, 5, 0, 2, 1, 4, 2, 6, 3, 7, 7, 8, 9, 7},
	{1, 0, 1, 0, 2, 0, 6, 7, 0, 2, 1, 4, 2, 6, 3, 8, 4, 10, 5, 12, 6, 14, 3, 2, 2, 6, 4, 7, 4, 1, 7, 7, 8, 40},
	{1, 3, 1, 5, 1, 7, 4, 1, 3, 1, 2, 9, 9, 6, 7, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 1, 8, 7, 7, 7, 7, 7},
}

// FuzzEngineOps differences the engine against its container/heap model
// over any sequence of Schedule, At, AtFront, Rearm, Cancel, BatchRearm,
// BeforeRead, Step and RunUntil, with callbacks that re-time events
// inside a batch, queue new ones and register further callbacks, and
// operations performed from inside a firing event.
func FuzzEngineOps(f *testing.F) {
	for _, s := range engineOpsSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runEngineOps(t, data)
	})
}

// TestEngineOpsSeedsRetimeInBatch pins what the seed corpus covers
// under plain go test: a BeforeRead callback re-timing queued events
// while a batch holds heap order suspended, and events whose Handler is
// not a Func firing in the model's order.
func TestEngineOpsSeedsRetimeInBatch(t *testing.T) {
	inBatch, handlers := 0, 0
	for _, s := range engineOpsSeeds {
		h := runEngineOps(t, s)
		inBatch += h.inBatch
		handlers += h.handlers
	}
	if inBatch == 0 || handlers == 0 {
		t.Fatalf("the seeds re-time %d queued events inside a batch and fire %d non-Func handlers; want both", inBatch, handlers)
	}
}
