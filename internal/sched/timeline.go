package sched

import "math"

// This file implements the availability timeline: the persistent,
// incrementally-maintained view of when running jobs release their
// nodes. It stands in for a per-pass snapshot-sort-scan of the running
// set (what reservation and conservativeBackfill of the reference
// scanner in reference_test.go do) with a sorted breakpoint slice that
// is updated once per job lifecycle event — start inserts a breakpoint,
// finish/kill removes it — so a scheduling pass touches only what
// changed.
//
// Equivalence contract: after promote(now), the entry sequence is
// exactly the clamped release snapshot the reference scanner builds and
// sorts on every pass (releases ordered by (t, n); entries that tie on
// both fields are interchangeable because every consumer either sums
// them or adds them at one profile boundary, both commutative). Every
// timeline query is therefore bit-identical to its reference
// counterpart; the differential tests in fastsched_test.go pin this job
// for job.

// tlEntry is one breakpoint: running job `job` is expected to release n
// nodes at time t. t starts as StartTime+Estimate and is clamped
// ("promoted") to the current pass time once the job overruns its
// estimate, mirroring the reference snapshot's `if end < now` clamp.
type tlEntry struct {
	t   float64
	n   int
	job *Job
}

// timeline is a piecewise-constant capacity profile over future time,
// stored as release breakpoints sorted by (t, n). It is owned by one
// scheduler and reuses its backing array across the whole run, so
// steady-state maintenance performs no allocations (growth happens only
// on the job-start path, never inside a no-op Pass).
type timeline struct {
	ents []tlEntry
	peak int // high-water breakpoint count, exported as timeline_breakpoints
}

// len returns the current breakpoint count (== running job count).
func (tl *timeline) len() int { return len(tl.ents) }

// add inserts j's release breakpoint at time t (StartTime+Estimate).
// The insert position is the (t, n) upper bound, found by hand-rolled
// binary search so no sort.Search closure escapes to the heap. Cost:
// O(log R) compare + O(R) memmove for R running jobs, paid once per
// start instead of an O(R log R) sort on every pass.
func (tl *timeline) add(j *Job, t float64) {
	n := j.Nodes
	lo, hi := 0, len(tl.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := &tl.ents[mid]
		if e.t > t || (e.t == t && e.n > n) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	tl.ents = append(tl.ents, tlEntry{})
	copy(tl.ents[lo+1:], tl.ents[lo:])
	tl.ents[lo] = tlEntry{t: t, n: n, job: j}
	if len(tl.ents) > tl.peak {
		tl.peak = len(tl.ents)
	}
}

// remove deletes j's breakpoint (job finished or was killed). The scan
// is linear in the running-set size, which is bounded by the node count
// — never by queue depth.
func (tl *timeline) remove(j *Job) {
	for i := range tl.ents {
		if tl.ents[i].job == j {
			tl.ents = append(tl.ents[:i], tl.ents[i+1:]...)
			return
		}
	}
	// Not finding the job would mean a start without an add; tryStart
	// and removeRunning are paired, so that is unreachable, and the
	// differential tests would catch a divergence before it could matter.
}

// promote clamps every overdue breakpoint (t < now) to now — an overrun
// job may finish at any moment, exactly like the reference snapshot's
// clamp — and restores (t, n) order within the now-group. It runs once
// at the start of each pass; between passes time only moves forward,
// so promotion is monotone and the suffix of genuinely-future
// entries is never touched.
func (tl *timeline) promote(now float64) {
	k := 0
	for k < len(tl.ents) && tl.ents[k].t <= now {
		k++
	}
	changed := false
	for i := 0; i < k; i++ {
		if tl.ents[i].t < now {
			tl.ents[i].t = now
			changed = true
		}
	}
	if !changed {
		return
	}
	// The clamped prefix all sits at t == now; re-establish the n
	// tie-break with a stable insertion sort (the prefix was (t, n)
	// sorted, so it is nearly sorted by n already and this approaches
	// linear time).
	for i := 1; i < k; i++ {
		e := tl.ents[i]
		m := i
		for m > 0 && tl.ents[m-1].n > e.n {
			tl.ents[m] = tl.ents[m-1]
			m--
		}
		tl.ents[m] = e
	}
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
	}
	if avail < need {
		// The pivot can never fit (e.g. the noise job permanently holds
		// nodes it would need): reserve at infinity so any fitting job
		// backfills freely. Mirrors the reference path exactly.
		return math.Inf(1), free
	}
	return shadow, avail - need
}

// fillProfile rebuilds the conservative-backfill step profile from the
// promoted timeline into p, reusing p's backing arrays. The addAt
// sequence is identical to the reference scanner's newProfileFromSorted
// over its clamped, (t, n)-sorted snapshot, so the resulting profile is
// field-for-field identical. Callers must promote first.
func (tl *timeline) fillProfile(p *profile, now float64, freeNow int) {
	p.reset(now, freeNow)
	for i := range tl.ents {
		t := tl.ents[i].t
		if t < now {
			t = now // unreachable after promote; kept as a safety clamp
		}
		p.addAt(t, tl.ents[i].n)
	}
}
