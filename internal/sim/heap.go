package sim

// The event queue is an index-aware 4-ary min-heap stored inline as a
// slice of *Event — no container/heap, no `any` boxing, no interface
// dispatch on the hottest shared path in the simulator (every event
// costs at least one push and one pop; a completion re-timing is a fix
// of one slot, or, inside a batch, a share of one heapify). A 4-ary
// layout halves the tree depth of a binary heap and keeps the four
// children of a node in adjacent cache lines, which is where the win
// over container/heap comes from at million-event scale.
//
// Ordering is the engine's total order (Time, band, seq): earlier time
// first, front-band events before normal events at equal time, and
// schedule order within a band. Because the order is total, the pop
// sequence is fully determined by the set of queued events — heap shape
// can never leak into simulation behaviour, and neither can the way the
// shape was reached: sifting each re-keyed event as it is re-keyed and
// re-keying many then rebuilding once (Engine.BatchRearm) end in
// different arrangements of the same keys and pop identically. The
// property tests in heap_test.go pin the pop order against a
// container/heap reference implementation over randomized
// Schedule/Rearm/Cancel streams, batched and not.

// eventBefore is the engine's total event order: (Time, band, seq).
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.front != b.front {
		return a.front
	}
	return a.seq < b.seq
}

// eventHeap is the inline 4-ary min-heap. Every queued event records
// its slot in Event.index (-1 when not queued), so Rearm and Cancel
// address the heap in O(1) and re-heapify in place. add and take keep
// the index fields right without keeping heap order; push, remove and
// fix keep both; heapify restores the order from any arrangement.
type eventHeap []*Event

// add appends ev at the last slot without sifting.
func (h *eventHeap) add(ev *Event) {
	*h = append(*h, ev)
	ev.index = len(*h) - 1
}

// push appends ev and sifts it into place.
func (h *eventHeap) push(ev *Event) {
	h.add(ev)
	h.siftUp(ev.index)
}

// popMin removes and returns the minimum event.
func (h *eventHeap) popMin() *Event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	ev.index = -1
	if n > 0 {
		old[0] = last
		last.index = 0
		h.siftDown(0)
	}
	return ev
}

// take deletes the event at slot i by moving the last element into its
// place, without sifting it, and reports whether slot i now holds an
// event that may violate heap order there.
func (h *eventHeap) take(i int) bool {
	old := *h
	n := len(old) - 1
	ev := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	ev.index = -1
	if i == n {
		return false
	}
	old[i] = last
	last.index = i
	return true
}

// remove deletes the event at slot i and re-sifts the element that took
// its place in whichever direction it violates heap order.
func (h *eventHeap) remove(i int) {
	if h.take(i) {
		h.fix(i)
	}
}

// heapify restores heap order over the whole queue, whatever order it
// is in, by Floyd's bottom-up construction: sift down every inner slot
// from the last to the root. O(n) comparisons, no allocation; the index
// fields must be right on entry and are on exit.
func (h *eventHeap) heapify() {
	for i := (len(*h) - 2) >> 2; i >= 0; i-- {
		h.siftDown(i)
	}
}

// fix restores heap order after the event at slot i changed its key:
// one sift up, and if the event did not move, one sift down. This is
// what keeps a lone Rearm O(log n) in place instead of a remove + push.
func (h *eventHeap) fix(i int) {
	ev := (*h)[i]
	h.siftUp(i)
	if ev.index == i {
		h.siftDown(i)
	}
}

// siftUp moves the event at slot i toward the root until its parent is
// not after it. The hole-and-slide form writes each displaced parent
// once instead of swapping pairwise.
func (h *eventHeap) siftUp(i int) {
	s := *h
	ev := s[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(ev, s[p]) {
			break
		}
		s[i] = s[p]
		s[i].index = i
		i = p
	}
	s[i] = ev
	ev.index = i
}

// siftDown moves the event at slot i toward the leaves, following the
// smallest of its up-to-four children each level.
func (h *eventHeap) siftDown(i int) {
	s := *h
	n := len(s)
	ev := s[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventBefore(s[j], s[m]) {
				m = j
			}
		}
		if !eventBefore(s[m], ev) {
			break
		}
		s[i] = s[m]
		s[i].index = i
		i = m
	}
	s[i] = ev
	ev.index = i
}
