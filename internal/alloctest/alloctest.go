// Package alloctest counts the heap allocations of a piece of work
// exactly, for the tests that pin them: the zero-allocation contracts of
// the gate, the scheduling pass, the engine, the row store and the
// daemon. Only tests import it.
package alloctest

import (
	"math"
	"runtime"
)

// Count runs setup and then f, runs times, and returns the fewest heap
// objects and bytes one f allocated; setup, which may be nil, is not
// counted. Each count is a runtime.MemStats delta taken the way
// testing.AllocsPerRun takes it, on one P so the runtime starts no thread
// inside it, but not divided by a run count that would round a fraction
// of an allocation per call down to zero; a collection first finishes
// any cycle in progress, whose mark phase would otherwise allocate
// inside. MemStats counts the whole process, and the runtime's background
// work sometimes lands inside one count (under -race, the scavenger
// growing a P's timer heap by one 32-byte object). That only ever adds,
// so the minimum is f's own count, exactly, provided every f starts from
// the same state: setup has to build it afresh, unless f leaves the
// state as it found it. Otherwise an allocation f makes from one state
// only, such as the first call after a change, is counted in one run and
// hidden by the minimum.
func Count(runs int, setup, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, bytes = math.MaxUint64, math.MaxUint64
	for range runs {
		if setup != nil {
			setup()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}
