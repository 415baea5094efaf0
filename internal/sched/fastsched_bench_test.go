package sched

import (
	"fmt"
	"testing"
)

// BenchmarkDeepQueuePass measures one steady-state scheduling pass over
// a blocked queue at 1k/10k/100k pending jobs, the timeline pass (fast/)
// versus the reference scanner of reference_test.go (reference/). The
// backlog is always BUILT through the timeline pass — submitting it
// through the scanner would pay the full rescan on every submit — and
// the scanner is put on the scheduler's test seam afterwards for the
// reference variants. `make bench-sched` guards the fast variants at 0
// allocs/op and the 100k fast pass against latency regressions.
func BenchmarkDeepQueuePass(b *testing.B) {
	for _, depth := range []int{1000, 10000, 100000} {
		s := deepBlockedScheduler(depth)
		for _, ref := range []bool{false, true} {
			name := "fast"
			if ref {
				name = "reference"
			}
			b.Run(fmt.Sprintf("%s/q%d", name, depth), func(b *testing.B) {
				if ref {
					useReference(s)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Pass(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSchedChurn measures the per-event cost the fast path is
// really about: against a deep blocked backlog, each iteration submits
// one small job that backfills immediately, runs 60 simulated seconds,
// and finishes — so every iteration pays enqueue + start + finish
// maintenance plus the passes those events trigger. The reference
// scanner re-derives the whole queue state on each of those passes; the
// timeline path touches only the changed entries.
func BenchmarkSchedChurn(b *testing.B) {
	const depth = 10000
	for _, ref := range []bool{false, true} {
		name := "fast"
		if ref {
			name = "reference"
		}
		b.Run(fmt.Sprintf("%s/q%d", name, depth), func(b *testing.B) {
			s := deepBlockedScheduler(depth)
			m := s.Machine()
			if ref {
				useReference(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := job(depth+1+i, 4, 60) // fits the 12 free nodes, backfills now
				if err := s.Submit(j); err != nil {
					b.Fatal(err)
				}
				m.Eng.RunUntil(m.Eng.Now() + 61)
				if s.RunningLen() != 1 { // the blocker
					b.Fatalf("churn job %d did not drain", j.ID)
				}
			}
		})
	}
}
