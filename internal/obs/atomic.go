package obs

import "sync/atomic"

// AtomicCounter is the concurrency-safe sibling of Counter for
// components that live outside the simulator's single-threaded event
// loop — the serving daemon's decision, cache, inference and
// backpressure counters. Like Counter, the nil receiver is a valid
// no-op, so handles can be resolved once and incremented
// unconditionally; unlike Counter it may be incremented from any number
// of goroutines.
//
// AtomicCounters deliberately do not live in a Registry (which is
// single-threaded by contract); holders snapshot them into an ordinary
// Snapshot when a consistent view is needed.
type AtomicCounter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *AtomicCounter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 for nil).
func (c *AtomicCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
