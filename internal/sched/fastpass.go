package sched

import (
	"fmt"
	"math"
)

// This file implements the scheduling pass over the availability
// timeline (timeline.go). The reference scanner the tests difference it
// against (reference_test.go) re-derives everything from scratch every
// cycle: it re-sorts the queue, snapshots and sorts the running set, and
// after every successful start throws the whole scan away and restarts
// it. The pass here keeps that work across events and across starts:
//
//   - The queue is maintained in (R1, seq) order at enqueue time, so a
//     pass never sorts. seq is the enqueue serial; breaking policy ties
//     with it reproduces exactly the order a stable sort of the
//     arrival-ordered queue yields, which is what the reference does.
//   - The running set's release breakpoints live on the persistent
//     timeline, updated once per job start/finish/kill instead of
//     snapshot-sorted once per pass.
//   - A parallel candidate array q2 holds the queue in (R2, R1, seq)
//     order — the exact order the reference obtains by stable-sorting
//     its R1-ordered candidate list by R2 — with per-block minima
//     (blkNodes, blkEst) so the backfill scan skips blockSize jobs at a
//     time when none of them could fit or clear the EASY condition.
//   - Scans resume after a start instead of restarting. This is
//     trace-equivalent to the reference restart because within one pass
//     simulated time is frozen and capacity only shrinks: a start
//     removes the started job, decreases the free count, leaves the
//     pivot's shadow time exactly where it was (the EASY backfill
//     condition guarantees the started job never delays the pivot), and
//     can only shrink the spare-node count — so every candidate the scan
//     already rejected would be rejected again, and the reference's
//     restarted scan fast-forwards to precisely where the fast scan
//     already is. The differential and property tests in fastsched_test
//     pin this equivalence job for job, trace byte for trace byte.
//
// Steady state (nothing starts), a fast pass costs O(pivot walk +
// queue/blockSize) with zero heap allocations; each change (start,
// finish, kill, submit, requeue) costs O(log Q) comparisons plus a
// memmove, instead of the reference's O(Q) rescan multiplied by the
// number of starts.

// blockSize is the q2 skip-table granularity: the backfill scan consults
// one (min nodes, min estimate) pair per blockSize candidates and skips
// the whole block when none can start. 64 keeps the table ~1.5% of the
// queue and one block's minima inside a cache line.
const blockSize = 64

// beforeR1 is the canonical main-queue order: R1, ties broken by the
// enqueue serial — exactly a stable R1-sort of the arrival-ordered
// queue.
func (s *Scheduler) beforeR1(a, b *Job) bool {
	if s.r1.Less(a, b) {
		return true
	}
	if s.r1.Less(b, a) {
		return false
	}
	return a.seq < b.seq
}

// beforeR2 is the canonical backfill-candidate order: R2, ties broken by
// the R1 order — exactly the reference's stable R2-sort of its
// R1-ordered candidate list.
func (s *Scheduler) beforeR2(a, b *Job) bool {
	if s.r2.Less(a, b) {
		return true
	}
	if s.r2.Less(b, a) {
		return false
	}
	return s.beforeR1(a, b)
}

// fastInsert places j into both maintained orders (queue by beforeR1, q2
// by beforeR2) and carries the skip table across the q2 shift (see
// shiftBlocks). Cost: O(log Q) comparisons plus the memmoves.
func (s *Scheduler) fastInsert(j *Job) {
	lo, hi := 0, len(s.queue)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.beforeR1(j, s.queue[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[lo+1:], s.queue[lo:])
	s.queue[lo] = j

	lo, hi = 0, len(s.q2)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.beforeR2(j, s.q2[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.q2 = append(s.q2, nil)
	copy(s.q2[lo+1:], s.q2[lo:])
	s.q2[lo] = j
	s.shiftBlocks(lo, true)
}

// fastRemove deletes j from both maintained orders by binary search —
// the (policy, seq) orders are strict and total, so j's position is
// found without a linear scan — and carries the skip table across the
// q2 shift (see shiftBlocks).
func (s *Scheduler) fastRemove(j *Job) {
	lo, hi := 0, len(s.queue)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.beforeR1(s.queue[mid], j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s.queue) || s.queue[lo] != j {
		panic(fmt.Sprintf("sched: job %d not at its queue order position (policy key mutated while queued?)", j.ID))
	}
	s.queue = append(s.queue[:lo], s.queue[lo+1:]...)

	lo, hi = 0, len(s.q2)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.beforeR2(s.q2[mid], j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s.q2) || s.q2[lo] != j {
		panic(fmt.Sprintf("sched: job %d not at its candidate order position (policy key mutated while queued?)", j.ID))
	}
	s.q2 = append(s.q2[:lo], s.q2[lo+1:]...)
	s.shiftBlocks(lo, false)
}

// sizeBlocks gives the skip table one entry per q2 block, growing the
// backing arrays geometrically and keeping the entries already there.
func (s *Scheduler) sizeBlocks() int {
	nb := (len(s.q2) + blockSize - 1) / blockSize
	if cap(s.blkNodes) < nb {
		bn := make([]int, nb, 2*nb)
		copy(bn, s.blkNodes)
		s.blkNodes = bn
		be := make([]float64, nb, 2*nb)
		copy(be, s.blkEst)
		s.blkEst = be
	}
	s.blkNodes = s.blkNodes[:nb]
	s.blkEst = s.blkEst[:nb]
	return nb
}

// refreshBlock recomputes block b's (min nodes, min estimate) pair from
// its members.
func (s *Scheduler) refreshBlock(b int) {
	end := (b + 1) * blockSize
	if end > len(s.q2) {
		end = len(s.q2)
	}
	minN, minE := int(math.MaxInt32), math.Inf(1)
	for _, c := range s.q2[b*blockSize : end] {
		if c.Nodes < minN {
			minN = c.Nodes
		}
		if c.Estimate < minE {
			minE = c.Estimate
		}
	}
	s.blkNodes[b] = minN
	s.blkEst[b] = minE
}

// shiftBlocks brings the skip table up to date after q2 gained
// (inserted) or lost one element at position pos. The block holding pos
// is recomputed. Every later block kept all its members but one: the
// shift carried one element out over one boundary and one in over the
// other (out of the front and in at the back for a removal, the reverse
// for an insert). Its minima therefore stand unless the departing
// element held one of them — then the block is recomputed — and need
// only be folded with the arriving element. A block the shift created is
// recomputed too; one it emptied is dropped by the resize. The result is
// the table a full recomputation gives, for the price of two
// dereferences per block instead of blockSize.
func (s *Scheduler) shiftBlocks(pos int, inserted bool) {
	old := len(s.blkNodes)
	nb := s.sizeBlocks()
	b := pos / blockSize
	if b < nb {
		s.refreshBlock(b)
	}
	for b++; b < nb; b++ {
		// After an insert the element that left block b over its back
		// boundary now leads block b+1 and the one that arrived leads
		// block b; after a removal the one that left over the front
		// boundary now closes block b-1 and the one that arrived closes
		// block b. The last block may have nobody leaving (insert) or
		// nobody arriving (removal).
		out, in := (b+1)*blockSize, b*blockSize
		if !inserted {
			out, in = b*blockSize-1, (b+1)*blockSize-1
		}
		if b >= old || (out < len(s.q2) && (s.q2[out].Nodes <= s.blkNodes[b] || s.q2[out].Estimate <= s.blkEst[b])) {
			s.refreshBlock(b)
			continue
		}
		if in < len(s.q2) {
			c := s.q2[in]
			if c.Nodes < s.blkNodes[b] {
				s.blkNodes[b] = c.Nodes
			}
			if c.Estimate < s.blkEst[b] {
				s.blkEst[b] = c.Estimate
			}
		}
	}
}

// passFast is the availability-timeline scheduling cycle. It mirrors
// the reference scanner decision for decision (same tryStart sequence,
// same veto bookkeeping, same backfill flags) while touching only what
// changed since the last pass — see the file comment for the equivalence
// argument.
func (s *Scheduler) passFast() {
	now := s.m.Eng.Now()
	s.tl.promote(now)

	// Head scan, continuation form: the reference restarts this loop
	// from the top after every start, but every job it would revisit has
	// either started (gone), been vetoed this pass, or is cooling down —
	// so resuming at the current index visits the identical sequence.
	i := 0
	var pivot *Job
	for i < len(s.queue) {
		j := s.queue[i]
		if j.vetoGen == s.passGen || s.coolingDown(j) {
			i++
			continue
		}
		if s.m.Alloc.CanAlloc(j.Nodes) {
			if s.tryStart(j, false) {
				if s.err != nil {
					return
				}
				continue // j left the queue; index i now holds its successor
			}
			i++ // vetoed: j keeps its place
			continue
		}
		pivot = j
		break
	}
	if pivot == nil {
		return
	}
	switch s.Backfill {
	case NoBackfill:
		// Strict in-order scheduling: the blocked head blocks all.
	case ConservativeBackfill:
		s.conservativeFast(now)
	default:
		s.easyFast(pivot, now)
	}
}

// easyFast backfills around the pivot's EASY reservation by scanning q2
// in candidate order, skipping whole blocks whose minima prove no member
// can start. After each start the reservation is recomputed from the
// timeline: the shadow time is provably unchanged within a pass (the
// EASY condition admits only jobs that release before the shadow or fit
// the spare nodes, and both cases leave the accumulation walk's stopping
// point where it was) and the spare count only shrinks, so resuming the
// scan is trace-equivalent to the reference's full restart.
func (s *Scheduler) easyFast(pivot *Job, now float64) {
	free := s.m.Alloc.FreeCount()
	shadow, extra := s.tl.reservation(pivot.Nodes, free, now)
	idx := 0
	for idx < len(s.q2) {
		if idx%blockSize == 0 {
			b := idx / blockSize
			// No member can pass CanAlloc, or none can clear the EASY
			// condition (everything in the block outlives the shadow and
			// outsizes the spare nodes): skip the whole block. Minima
			// include vetoed/cooling members and possibly the pivot,
			// which only makes skipping conservative, never unsound.
			if s.blkNodes[b] > free || (now+s.blkEst[b] > shadow && s.blkNodes[b] > extra) {
				idx += blockSize
				continue
			}
		}
		c := s.q2[idx]
		if c == pivot || c.vetoGen == s.passGen || s.coolingDown(c) || !s.m.Alloc.CanAlloc(c.Nodes) {
			idx++
			continue
		}
		if now+c.Estimate <= shadow || c.Nodes <= extra {
			if s.tryStart(c, true) {
				if s.err != nil {
					return
				}
				free = s.m.Alloc.FreeCount()
				shadow, extra = s.tl.reservation(pivot.Nodes, free, now)
				continue // c left q2; index idx now holds its successor
			}
		}
		idx++
	}
}

// conservativeFast places every queued job on the pooled availability
// profile in R1 order and starts any whose reservation begins now,
// continuing the placement sweep across starts. The reference instead
// rebuilds the profile and replaces every job after each start; the
// resulting profile state is identical (a started job's running release
// subtracts exactly the capacity its reservation did, and conservative
// placement guarantees earlier reservations stay feasible and cannot
// move earlier), so one sweep reproduces the reference's repeated
// sweeps decision for decision.
func (s *Scheduler) conservativeFast(now float64) {
	s.tl.fillProfile(&s.prof, now, s.m.Alloc.FreeCount())
	p := &s.prof
	for i := 0; i < len(s.queue); {
		j := s.queue[i]
		t := p.findSlot(j.Nodes, j.Estimate, now)
		if t == now && j.vetoGen != s.passGen && !s.coolingDown(j) && s.m.Alloc.CanAlloc(j.Nodes) {
			if s.tryStart(j, i > 0) {
				if s.err != nil {
					return
				}
				p.reserve(now, j.Estimate, j.Nodes)
				continue // j left the queue; index i now holds its successor
			}
			// Vetoed just now: keep its reservation below so no later
			// job can capture its slot.
		}
		p.reserve(t, j.Estimate, j.Nodes)
		i++
	}
}
