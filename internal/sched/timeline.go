package sched

import "math"

// This file implements the availability timeline: the persistent,
// incrementally-maintained view of when running jobs release their
// nodes. It stands in for a per-pass snapshot-sort-scan of the running
// set (what the reservation walk of the reference scanner in
// reference_test.go does) with a sorted breakpoint slice that is updated
// once per job lifecycle event — start inserts a breakpoint, finish/kill
// removes it — so a scheduling pass touches only what changed.
//
// Equivalence contract: after promote(now), the entry sequence, read
// through time, is exactly the clamped release snapshot the reference
// scanner builds and sorts on every pass (releases ordered by (t, n);
// entries that tie on both fields are interchangeable because the
// reservation walk sums them). Every timeline query is therefore
// bit-identical to its reference counterpart; the differential tests in
// fastsched_test.go pin this job for job.

// tlEntry is one breakpoint: running job `job` is expected to release n
// nodes at time t (StartTime+Estimate), or at the pass time once it has
// overrun and joined the overdue group, mirroring the reference
// snapshot's `if end < now` clamp.
type tlEntry struct {
	t   float64
	n   int
	job *Job
}

// timeline is a piecewise-constant capacity profile over future time,
// stored as release breakpoints sorted by (t, n); its first due entries,
// whose time had come by the last pass, all release at that pass's time,
// ordered by n. It is owned by one scheduler and reuses its backing
// array across the whole run, so steady-state maintenance performs no
// allocations (growth happens only on the job-start path, never inside
// a no-op Pass).
type timeline struct {
	ents  []tlEntry
	due   int     // ents[:due] is the overdue group
	passT float64 // time of the last promote: the group's release time
	peak  int     // high-water breakpoint count, exported as timeline_breakpoints
}

// len returns the current breakpoint count (== running job count).
func (tl *timeline) len() int { return len(tl.ents) }

// add inserts j's release breakpoint at time t (StartTime+Estimate) at
// the upper bound of its segment (see search). Cost: O(log R) compare +
// O(R) memmove for R running jobs, paid once per start instead of an
// O(R log R) sort on every pass.
func (tl *timeline) add(j *Job, t float64) {
	i, _, group := tl.search(t, j.Nodes, true)
	if group {
		tl.due++
	}
	tl.ents = append(tl.ents, tlEntry{})
	copy(tl.ents[i+1:], tl.ents[i:])
	tl.ents[i] = tlEntry{t: t, n: j.Nodes, job: j}
	if len(tl.ents) > tl.peak {
		tl.peak = len(tl.ents)
	}
}

// remove deletes j's breakpoint, added at time t (job finished or was
// killed): the search finds the first entry of its tie run, which is
// scanned for j, and the tail moves down by one, the memmove add pays.
func (tl *timeline) remove(j *Job, t float64) {
	i, end, group := tl.search(t, j.Nodes, false)
	for i < end && tl.ents[i].job != j {
		i++
	}
	if i == end {
		return // unreachable: tryStart and removeRunning are paired
	}
	if group {
		tl.due--
	}
	tl.ents = append(tl.ents[:i], tl.ents[i+1:]...)
}

// search finds where an entry (t, n) goes. Its segment is the overdue
// group, which holds exactly the entries with t <= passT (add puts them
// there, promote moves them) ordered by n, or the entries after it,
// ordered by (t, n); end is the segment's end, and i its first entry
// ordered after (t, n) or, unless upper, tied with it. The binary search
// is hand-rolled, so no sort.Search closure escapes to the heap.
func (tl *timeline) search(t float64, n int, upper bool) (i, end int, group bool) {
	group = t <= tl.passT
	i, end = tl.due, len(tl.ents)
	if group {
		i, end = 0, tl.due
	}
	for hi := end; i < hi; {
		mid := int(uint(i+hi) >> 1)
		e := &tl.ents[mid]
		after := e.n > n || (e.n == n && !upper)
		if !group && e.t != t {
			after = e.t > t
		}
		if after {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	return i, end, group
}

// promote moves the overdue group's release time to now — an overrun
// job may finish at any moment, exactly like the reference snapshot's
// clamp — and inserts the entries due since the last pass (t <= now)
// into it, stably by n. It runs once at the start of each pass; time
// only moves forward, so the group is never rewritten and the entries
// after it are never touched.
func (tl *timeline) promote(now float64) {
	tl.passT = now
	k := tl.due
	for k < len(tl.ents) && tl.ents[k].t <= now {
		k++
	}
	for i := tl.due; i < k; i++ {
		e := tl.ents[i]
		m := i
		for m > 0 && tl.ents[m-1].n > e.n {
			tl.ents[m] = tl.ents[m-1]
			m--
		}
		tl.ents[m] = e
	}
	tl.due = k
}

// reservation computes the EASY shadow time and spare node count for a
// pivot needing `need` nodes, given the current free count. It is the
// reference reservation walk verbatim — accumulate releases in (t, n)
// order until the pivot fits — but over the persistent promoted
// timeline instead of a freshly sorted snapshot, so it costs O(R') for
// R' = releases consumed, with zero allocations. Callers must promote
// first.
func (tl *timeline) reservation(need, free int, now float64) (shadow float64, extra int) {
	avail := free
	shadow = now
	for i := range tl.ents {
		if avail >= need {
			break
		}
		avail += tl.ents[i].n
		shadow = tl.ents[i].t
		if i < tl.due {
			shadow = tl.passT
		}
	}
	if avail < need {
		// The pivot can never fit (e.g. the noise job permanently holds
		// nodes it would need): reserve at infinity so any fitting job
		// backfills freely. Mirrors the reference path exactly.
		return math.Inf(1), free
	}
	return shadow, avail - need
}
