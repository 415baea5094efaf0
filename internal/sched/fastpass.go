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
//     The queue is also the backfill-candidate list (R2 = R1).
//   - The running set's release breakpoints live on the persistent
//     timeline, updated once per job start/finish/kill instead of
//     snapshot-sorted once per pass.
//   - Per-block minima over the queue (blkNodes, blkEst) let the
//     backfill scan skip blockSize jobs at a time when none of them could
//     fit or clear the EASY condition.
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
// finish, kill, submit, requeue) costs O(log Q) comparisons plus one
// memmove, instead of the reference's O(Q) rescan multiplied by the
// number of starts.

// blockSize is the skip-table granularity: the backfill scan consults
// one (min nodes, min estimate) pair per blockSize candidates and skips
// the whole block when none can start. 64 keeps the table ~1.5% of the
// queue and one block's minima inside a cache line.
const blockSize = 64

// beforeR1 is the canonical queue order: R1, ties broken by the enqueue
// serial — exactly a stable R1-sort of the arrival-ordered queue.
func (s *Scheduler) beforeR1(a, b *Job) bool {
	if s.r1.Less(a, b) {
		return true
	}
	if s.r1.Less(b, a) {
		return false
	}
	return a.seq < b.seq
}

// fastInsert places j into the queue by beforeR1 and carries the skip
// table across the shift (see shiftBlocks). Cost: O(log Q) comparisons
// plus one memmove.
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
	s.shiftBlocks(lo, true)
}

// fastRemove deletes j from the queue by binary search — the (policy,
// seq) order is strict and total, so j's position is found without a
// linear scan — and carries the skip table across the shift (see
// shiftBlocks).
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
	s.shiftBlocks(lo, false)
}

// sizeBlocks gives the skip table one entry per queue block, growing the
// backing arrays geometrically and keeping the entries already there.
func (s *Scheduler) sizeBlocks() int {
	nb := (len(s.queue) + blockSize - 1) / blockSize
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
	if end > len(s.queue) {
		end = len(s.queue)
	}
	minN, minE := int(math.MaxInt32), math.Inf(1)
	for _, c := range s.queue[b*blockSize : end] {
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

// shiftBlocks brings the skip table up to date after the queue gained
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
		if b >= old || (out < len(s.queue) && (s.queue[out].Nodes <= s.blkNodes[b] || s.queue[out].Estimate <= s.blkEst[b])) {
			s.refreshBlock(b)
			continue
		}
		if in < len(s.queue) {
			c := s.queue[in]
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
		s.easyFast(j, now)
		return
	}
}

// easyFast backfills around the pivot's EASY reservation by scanning the
// queue in order, skipping whole blocks whose minima prove no member can
// start. After each start the reservation is recomputed from the
// timeline: the shadow time is provably unchanged within a pass (the
// EASY condition admits only jobs that release before the shadow or fit
// the spare nodes, and both cases leave the accumulation walk's stopping
// point where it was) and the spare count only shrinks, so resuming the
// scan is trace-equivalent to the reference's full restart.
func (s *Scheduler) easyFast(pivot *Job, now float64) {
	free := s.m.Alloc.FreeCount()
	shadow, extra := s.tl.reservation(pivot.Nodes, free, now)
	idx := 0
	for idx < len(s.queue) {
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
		c := s.queue[idx]
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
				continue // c left the queue; index idx now holds its successor
			}
		}
		idx++
	}
}
