package sched

import (
	"slices"
	"testing"
)

// FuzzTimelineOps drives a timeline through operations decoded from
// bytes, two bytes each and at most 64 of them (minimizing a longer
// input stalls the fuzzer): add a job's release at or after the pass
// time, promote the clock, remove a running job's release, or ask for a
// reservation. After every operation the timeline must hold exactly the
// entries its live jobs added, and read through their effective release
// times they must equal the reference scanner's snapshot of the same
// jobs (clamped to the pass time, sorted by (t, n)); every reservation
// must equal walkReleases over that snapshot. Times sit on a half-second
// grid and node counts on eight values, so tie runs on (t, n), adds
// exactly at the pass time and removals from inside the overdue group
// are common.
func FuzzTimelineOps(f *testing.F) {
	// Three adds tied on (t, n), one at the pass time, a promote that
	// makes them overdue, and removals from both segments.
	f.Add([]byte{0, 4, 0, 4, 0, 4, 0, 0, 4, 0, 1, 8, 2, 1, 0, 6, 0, 6, 0, 6, 2, 4, 3, 20, 2, 0, 3, 9})
	// A growing overdue group that adds keep joining at the pass time.
	f.Add([]byte{0, 2, 4, 2, 8, 2, 1, 3, 0, 0, 4, 0, 8, 0, 12, 0, 2, 2, 3, 30, 1, 1, 0, 0, 2, 0, 7, 40})
	// Interleaved adds and removes with no promote at all.
	f.Add([]byte{0, 1, 4, 1, 0, 1, 2, 1, 0, 31, 2, 0, 3, 12, 6, 5, 2, 2, 11, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type live struct {
			j *Job
			t float64 // the time the job's release was added at
		}
		if len(ops) > 1<<7 {
			ops = ops[:1<<7]
		}
		var (
			tl   timeline
			jobs []live
			rels []release
			now  float64
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0:
				j := &Job{ID: i, Nodes: 1 + int(op>>2)%8}
				end := now + float64(arg%32)/2
				tl.add(j, end)
				jobs = append(jobs, live{j: j, t: end})
			case 1:
				now += float64(arg%16) / 2
				tl.promote(now)
			case 2:
				if len(jobs) == 0 {
					continue
				}
				k := int(arg) % len(jobs)
				tl.remove(jobs[k].j, jobs[k].t)
				jobs = slices.Delete(jobs, k, k+1)
			case 3:
				need, free := 1+int(arg)%48, int(op>>2)%8
				shadow, extra := tl.reservation(need, free, now)
				wantShadow, wantExtra := walkReleases(rels, need, free, now)
				if shadow != wantShadow || extra != wantExtra {
					t.Fatalf("op %d: reservation(%d, %d) = (%v, %d), reference walk (%v, %d)",
						i/2, need, free, shadow, extra, wantShadow, wantExtra)
				}
			}
			// The reference snapshot of the live jobs, and the check that
			// each entry is its own job's.
			rels = rels[:0]
			for _, l := range jobs {
				rels = append(rels, release{t: max(l.t, now), n: l.j.Nodes})
			}
			sortReleases(rels)
			if tl.len() != len(jobs) {
				t.Fatalf("op %d: timeline holds %d entries, %d jobs run", i/2, tl.len(), len(jobs))
			}
			for k, e := range tl.ents {
				got := e.t
				if k < tl.due {
					got = tl.passT
				}
				if got != rels[k].t || e.n != rels[k].n {
					t.Fatalf("op %d entry %d: timeline (%v,%d), snapshot (%v,%d)", i/2, k, got, e.n, rels[k].t, rels[k].n)
				}
				idx := slices.IndexFunc(jobs, func(l live) bool { return l.j == e.job })
				if idx < 0 || jobs[idx].t != e.t || e.job.Nodes != e.n {
					t.Fatalf("op %d entry %d: (%v,%d) is not an entry a running job added", i/2, k, e.t, e.n)
				}
			}
		}
	})
}
