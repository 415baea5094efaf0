package sched

import (
	"cmp"
	"math"
	"slices"
)

// This file holds the oracle the availability-timeline pass is
// differenced against: the reference scanner, Algorithm 1 written the
// slow obvious way. Every cycle it sorts the queue, scans for the pivot,
// snapshots and sorts the running set for the reservation, walks the
// backfill candidates in queue order, and starts the whole scan again
// after every successful start: O(queue × nodes) per pass.
//
// It stays independent of what it checks. The scheduler keeps its queue
// in policy order and the releases on a timeline whichever pass body
// runs (tryStart and enqueue maintain them), and the scanner reads none
// of that order: the R1 order is derived from queue membership (copy,
// order by enqueue serial, stable-sort by policy) and the releases from
// s.running. A wrong comparison in fastInsert or a misplaced breakpoint
// therefore moves the timeline pass and leaves the scanner where it was
// (TestReferenceReadsMembershipOnly).

// refScanner is the reference pass body for one scheduler, with the
// scratch it reuses between passes.
type refScanner struct {
	s     *Scheduler
	queue []*Job
	rels  []release
	// perturb, when set, rearranges the scanner's copy of the queue
	// before it is ordered; only TestReferenceReadsMembershipOnly sets it.
	perturb func([]*Job)
}

// useReference routes every pass of s through the reference scanner, by
// way of the scheduler's one test seam.
func useReference(s *Scheduler) *refScanner {
	r := &refScanner{s: s}
	s.passBody = r.pass
	return r
}

// release is one entry of the running-set snapshot: n nodes come free at
// time t.
type release struct {
	t float64
	n int
}

// sortReleases sorts rels in place into snapshot order: by time, ties
// broken by node count. Ties arise whenever two overrun jobs are clamped
// to the same pass time, and the spare-node count of a reservation can
// depend on which same-time release the walk consumes last, so the
// tie-break has to be the timeline's. Releases that tie on both fields
// are interchangeable: the reservation walk sums them.
func sortReleases(rels []release) {
	slices.SortFunc(rels, func(a, b release) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.n, b.n))
	})
}

// sortJobs is a stable insertion sort under p. Stable sorting has a
// unique result; queues here are short and nearly sorted between passes,
// where insertion sort approaches linear time.
func sortJobs(q []*Job, p Policy) {
	for i := 1; i < len(q); i++ {
		j := q[i]
		k := i
		for k > 0 && p.Less(j, q[k-1]) {
			q[k] = q[k-1]
			k--
		}
		q[k] = j
	}
}

// ordered returns the queued jobs in R1 order, from membership alone:
// arrival order by enqueue serial, then a stable sort under R1.
func (r *refScanner) ordered() []*Job {
	q := append(r.queue[:0], r.s.queue...)
	if r.perturb != nil {
		r.perturb(q)
	}
	slices.SortFunc(q, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	sortJobs(q, r.s.r1)
	r.queue = q
	return q
}

// snapshot returns the running set's releases, clamped to now and in
// snapshot order.
func (r *refScanner) snapshot(now float64) []release {
	rels := r.rels[:0]
	for _, j := range r.s.running {
		end := j.StartTime + j.Estimate
		if end < now {
			end = now // overrun its estimate; it can finish any moment
		}
		rels = append(rels, release{t: end, n: j.Nodes})
	}
	sortReleases(rels)
	r.rels = rels
	return rels
}

// pass is the reference scheduling cycle.
func (r *refScanner) pass() {
	s := r.s
restart:
	for s.err == nil {
		queue := r.ordered()
		var pivot *Job
		for _, j := range queue {
			if j.vetoGen == s.passGen || s.coolingDown(j) {
				continue
			}
			if s.m.Alloc.CanAlloc(j.Nodes) {
				if s.tryStart(j, false) {
					continue restart
				}
				continue // vetoed: consider the next job, j keeps its place
			}
			pivot = j
			break
		}
		if pivot == nil {
			break
		}
		// EASY backfilling around the pivot's reservation, candidates in
		// queue order.
		shadow, extra := r.reservation(pivot)
		now := s.m.Eng.Now()
		for _, c := range queue {
			if c == pivot || c.vetoGen == s.passGen || s.coolingDown(c) || !s.m.Alloc.CanAlloc(c.Nodes) {
				continue
			}
			if now+c.Estimate <= shadow || c.Nodes <= extra {
				if s.tryStart(c, true) {
					continue restart
				}
			}
		}
		break
	}
}

// reservation computes the pivot's EASY reservation over the running
// set's snapshot (see walkReleases).
func (r *refScanner) reservation(pivot *Job) (shadow float64, extra int) {
	now := r.s.m.Eng.Now()
	return walkReleases(r.snapshot(now), pivot.Nodes, r.s.m.Alloc.FreeCount(), now)
}

// walkReleases is the standard count-based reservation: walk the
// releases, in snapshot order, by estimated completion until enough
// nodes accumulate. It returns the shadow time and the number of spare
// nodes at that time (backfill jobs at most that size cannot delay the
// reservation regardless of their duration).
func walkReleases(rels []release, need, free int, now float64) (shadow float64, extra int) {
	avail := free
	shadow = now
	for _, rel := range rels {
		if avail >= need {
			break
		}
		avail += rel.n
		shadow = rel.t
	}
	if avail < need {
		// The pivot can never fit (e.g. the noise job permanently holds
		// nodes it would need): reserve at infinity so any fitting job
		// backfills freely.
		return math.Inf(1), free
	}
	return shadow, avail - need
}

// refreshBlocks recomputes the whole skip table from the queue: what the
// incremental shiftBlocks must equal after every insert and removal.
func (s *Scheduler) refreshBlocks() {
	nb := s.sizeBlocks()
	for b := 0; b < nb; b++ {
		s.refreshBlock(b)
	}
}
