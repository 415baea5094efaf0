package mlkit

import (
	"math"

	"rush/internal/sim"
)

// This file is the training path: an iterative tree builder that grows
// exactly the trees the per-node-sort oracle (treeref_test.go) grows —
// same nodes, same bytes — without its per-node per-candidate sort.Slice
// calls. Feature columns are sorted once per Fit (presort.go) and every
// split stably partitions the sorted index segments in place, so a
// node's candidate scan just walks its already-sorted segment. All
// working storage (row lists, class histograms, partition scratch, the
// feature-subsample permutation, the node stack) is allocated once per
// Fit and reused across nodes.
//
// Bit-identity with the reference builder is structural, not
// approximate, and rests on three invariants:
//
//  1. Same scan order. The reference per-node sort and the presort share
//     one comparator (colLess), and a node's row list is always in
//     ascending row order (the root starts that way and stable
//     partitioning preserves it), so every accumulation — class counts,
//     weight totals, split statistics — adds the same floats in the
//     same sequence.
//  2. Same RNG draws. Feature subsampling uses PermInto (the exact draw
//     sequence of rand.Perm) and random thresholds draw under the same
//     guard as the reference, so the stream position matches at every
//     node.
//  3. Same traversal. The explicit stack pops left subtrees before
//     right, reproducing the reference's recursive preorder and with it
//     the node numbering, importance accumulation order, and serialized
//     layout.
//
// A fourth, conditional shortcut: under uniform unit weights (every
// plain Fit; ensembles bag with w=1) all accumulated statistics are
// exact small integers, and float64(int) conversion is exact, so the
// builder may count in integers and convert at each evaluation — the
// resulting floats are bit-identical to the reference's running float
// sums while the inner loops drop the weight loads and float adds.
// Weighted fits (AdaBoost with Depth >= 2) keep the float accumulation.
//
// The oracle is test code: viaReference puts it on the one seam,
// oracleBuild (tree.go), and the differential tests in trainfast_test.go
// diff the serialized bytes of both builders.

// fastFrame is one pending subtree: the node's half-open segment in the
// partitioned row/column arrays, its depth, and the parent slot to patch
// once the node's index is known.
type fastFrame struct {
	start, end int
	depth      int
	parent     int
	left       bool
}

// resolveCandidates maps a MaxFeatures setting to the per-split
// candidate count for nf features — shared by the reference and fast
// builders so both draw (or skip) the same feature subsample.
func resolveCandidates(maxFeatures, nf int) int {
	switch {
	case maxFeatures == SqrtFeatures:
		n := int(math.Sqrt(float64(nf)))
		if n < 1 {
			n = 1
		}
		return n
	case maxFeatures <= 0 || maxFeatures > nf:
		return nf
	default:
		return maxFeatures
	}
}

// fastTreeBuilder grows a classification tree from presorted columns.
// In exact-split mode it maintains every feature's sorted index segment
// across splits; in random-threshold (Extra Trees) mode sorted order is
// never consulted, so only the row list is partitioned and the whole
// build is plain O(candidates × rows) scanning per node.
type fastTreeBuilder struct {
	t   *Tree
	y   []int
	w   []float64
	k   int
	nf  int
	n   int
	rng *sim.Source

	colv []float64 // column-major values: colv[f*n+row]
	work []int32   // sorted columns, partitioned in place; nil in random mode
	wval []float64 // values parallel to work, so scans read sequentially
	rows []int32   // per-node row lists in ascending row order
	bufs *bootBufs // pooled backing for work/wval when copied from a shared ctx

	// uniform marks the all-weights-one fit: statistics accumulate as
	// exact integers (bit-identical after conversion, see file comment).
	// y8 is the class index per row, one byte, for the integer counters.
	uniform bool
	y8      []uint8

	marks        []uint8   // per-row left/right mark for the current split
	tmpL, tmpR   []int32   // branchless stable-partition scratch
	tmpLF, tmpRF []float64 // same, for the parallel value columns
	counts       []float64
	leftCounts   []float64
	countsInt    []int32
	leftInt      []int32

	nCand    int
	allFeats []int // iteration order when every feature is a candidate
	perm     []int // PermInto buffer when subsampling
	stack    []fastFrame
}

func newFastTreeBuilder(t *Tree, x [][]float64, yi []int, w []float64, tc *trainCtx) *fastTreeBuilder {
	n := len(yi)
	nf := t.nFeatures
	fb := &fastTreeBuilder{
		t: t, y: yi, w: w, k: len(t.classes), nf: nf, n: n,
		rng: sim.NewSource(t.cfg.Seed),
	}
	if tc != nil {
		fb.colv = tc.colv
	} else {
		fb.colv = columnMajor(x, nf)
	}
	if !t.cfg.RandomThreshold {
		switch {
		case tc == nil || tc.cols == nil:
			sc := presortColumns(fb.colv, nf, n, 1)
			fb.work, fb.wval = sc.idx, sc.val
		case tc.owned:
			// This tree's private copy; consume in place.
			fb.work, fb.wval = tc.cols.idx, tc.cols.val
		default:
			fb.bufs = bootPool.Get().(*bootBufs)
			fb.work = fb.bufs.grabIdx(nf * n)
			copy(fb.work, tc.cols.idx)
			fb.wval = fb.bufs.grabSval(nf * n)
			copy(fb.wval, tc.cols.val)
		}
	}
	fb.uniform = fb.k <= 256
	if fb.uniform {
		for _, v := range w {
			if v != 1 {
				fb.uniform = false
				break
			}
		}
	}
	if fb.uniform {
		fb.y8 = make([]uint8, n)
		for i, c := range yi {
			fb.y8[i] = uint8(c)
		}
		fb.countsInt = make([]int32, fb.k)
		fb.leftInt = make([]int32, fb.k)
	}
	fb.rows = make([]int32, n)
	for i := range fb.rows {
		fb.rows[i] = int32(i)
	}
	fb.marks = make([]uint8, n)
	fb.tmpL = make([]int32, n)
	fb.tmpR = make([]int32, n)
	if fb.work != nil {
		fb.tmpLF = make([]float64, n)
		fb.tmpRF = make([]float64, n)
	}
	fb.counts = make([]float64, fb.k)
	fb.leftCounts = make([]float64, fb.k)
	fb.nCand = resolveCandidates(t.cfg.MaxFeatures, nf)
	if fb.nCand == nf {
		fb.allFeats = make([]int, nf)
		for i := range fb.allFeats {
			fb.allFeats[i] = i
		}
	} else {
		fb.perm = make([]int, nf)
	}
	return fb
}

func (fb *fastTreeBuilder) run() {
	fb.stack = append(fb.stack[:0], fastFrame{end: fb.n, depth: 1, parent: -1})
	for len(fb.stack) > 0 {
		fr := fb.stack[len(fb.stack)-1]
		fb.stack = fb.stack[:len(fb.stack)-1]
		idx := fb.node(fr)
		if fr.parent >= 0 {
			if fr.left {
				fb.t.nodes[fr.parent].Left = idx
			} else {
				fb.t.nodes[fr.parent].Right = idx
			}
		}
	}
	if fb.bufs != nil {
		bootPool.Put(fb.bufs)
		fb.bufs = nil
		fb.work = nil
		fb.wval = nil
	}
}

// node emits the node for one frame — a leaf, or a split plus its two
// child frames — and returns its index. It mirrors the oracle's build
// statement for statement.
func (fb *fastTreeBuilder) node(fr fastFrame) int {
	rows := fb.rows[fr.start:fr.end]
	counts := fb.counts
	var total float64
	if fb.uniform {
		ci := fb.countsInt
		for i := range ci {
			ci[i] = 0
		}
		for _, s := range rows {
			ci[fb.y8[s]]++
		}
		for i, c := range ci {
			counts[i] = float64(c)
		}
		total = float64(len(rows))
	} else {
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range rows {
			counts[fb.y[s]] += fb.w[s]
			total += fb.w[s]
		}
	}
	leaf := func() int {
		probs := make([]float64, fb.k)
		if total > 0 {
			for i, c := range counts {
				probs[i] = c / total
			}
		}
		fb.t.nodes = append(fb.t.nodes, treeNode{Probs: probs})
		return len(fb.t.nodes) - 1
	}
	cfg := &fb.t.cfg
	if len(rows) < 2*cfg.MinLeaf || total <= 0 {
		return leaf()
	}
	if cfg.MaxDepth > 0 && fr.depth >= cfg.MaxDepth {
		return leaf()
	}
	parentGini := gini(counts, total)
	if parentGini == 0 {
		return leaf()
	}

	feat, thr, gain := fb.bestSplit(fr, counts, total, parentGini)
	if feat < 0 {
		return leaf()
	}

	vals := fb.colv[feat*fb.n : (feat+1)*fb.n]
	nl := 0
	for _, s := range rows {
		if vals[s] <= thr { // NaN routes right, as in the reference
			fb.marks[s] = 1
			nl++
		} else {
			fb.marks[s] = 0
		}
	}
	if nl < cfg.MinLeaf || len(rows)-nl < cfg.MinLeaf {
		return leaf()
	}
	fb.t.imp[feat] += gain * total
	var leftW float64
	if fb.uniform {
		leftW = float64(nl) // == the reference's unit-weight sum, exactly
	} else {
		for _, s := range rows {
			if fb.marks[s] != 0 {
				leftW += fb.w[s]
			}
		}
	}
	fb.partition(fr.start, fr.end)

	idx := len(fb.t.nodes)
	fb.t.nodes = append(fb.t.nodes, treeNode{Feature: feat, Threshold: thr, DefaultLeft: leftW >= total-leftW})
	mid := fr.start + nl
	// Right frame below left so the left subtree pops (and numbers) first.
	fb.stack = append(fb.stack,
		fastFrame{start: mid, end: fr.end, depth: fr.depth + 1, parent: idx},
		fastFrame{start: fr.start, end: mid, depth: fr.depth + 1, parent: idx, left: true},
	)
	return idx
}

func (fb *fastTreeBuilder) bestSplit(fr fastFrame, counts []float64, total, parentGini float64) (int, float64, float64) {
	var candidates []int
	if fb.nCand == fb.nf {
		candidates = fb.allFeats
	} else {
		fb.rng.PermInto(fb.perm)
		candidates = fb.perm[:fb.nCand]
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	for _, f := range candidates {
		var thr, gain float64
		var ok bool
		switch {
		case fb.t.cfg.RandomThreshold:
			thr, gain, ok = fb.randomSplit(fr, f, counts, total, parentGini)
		case fb.uniform:
			thr, gain, ok = fb.exactSplitUniform(fr, f, total, parentGini)
		default:
			thr, gain, ok = fb.exactSplit(fr, f, counts, total, parentGini)
		}
		if ok && gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
		}
	}
	if bestGain <= 1e-12 {
		return -1, 0, 0
	}
	return bestFeat, bestThr, bestGain
}

// exactSplit scans every cut point of feature f — the node's segment of
// the presorted column, no sort, no copy. The weighted variant, mirroring
// the reference accumulation float for float.
func (fb *fastTreeBuilder) exactSplit(fr fastFrame, f int, counts []float64, total, parentGini float64) (float64, float64, bool) {
	col := fb.work[f*fb.n+fr.start : f*fb.n+fr.end]
	wv := fb.wval[f*fb.n+fr.start : f*fb.n+fr.end]
	leftCounts := fb.leftCounts
	for i := range leftCounts {
		leftCounts[i] = 0
	}
	minLeaf := fb.t.cfg.MinLeaf
	var leftTotal float64
	bestThr, bestGain, ok := 0.0, 0.0, false
	for i := 0; i < len(col)-1; i++ {
		s := col[i]
		leftCounts[fb.y[s]] += fb.w[s]
		leftTotal += fb.w[s]
		cur, next := wv[i], wv[i+1]
		if cur == next {
			continue
		}
		if i+1 < minLeaf || len(col)-i-1 < minLeaf {
			continue
		}
		rightTotal := total - leftTotal
		if leftTotal <= 0 || rightTotal <= 0 {
			continue
		}
		gl := giniPartial(leftCounts, leftTotal)
		gr := giniRemainder(counts, leftCounts, rightTotal)
		gain := parentGini - (leftTotal*gl+rightTotal*gr)/total
		if gain > bestGain {
			bestThr = cur + (next-cur)/2
			bestGain = gain
			ok = true
		}
	}
	return bestThr, bestGain, ok
}

// exactSplitUniform is exactSplit for unit weights: prefix statistics
// are position counts and one-byte class tallies, converted to the
// reference's exact float values only at evaluated cut points.
func (fb *fastTreeBuilder) exactSplitUniform(fr fastFrame, f int, total, parentGini float64) (float64, float64, bool) {
	col := fb.work[f*fb.n+fr.start : f*fb.n+fr.end]
	wv := fb.wval[f*fb.n+fr.start : f*fb.n+fr.end]
	y8 := fb.y8
	lc := fb.leftInt
	for i := range lc {
		lc[i] = 0
	}
	ci := fb.countsInt
	minLeaf := fb.t.cfg.MinLeaf
	m := len(col)
	bestThr, bestGain, ok := 0.0, 0.0, false
	for i := 0; i < m-1; i++ {
		s := col[i]
		lc[y8[s]]++
		cur, next := wv[i], wv[i+1]
		if cur == next {
			continue
		}
		if i+1 < minLeaf || m-i-1 < minLeaf {
			continue
		}
		leftTotal := float64(i + 1)
		rightTotal := total - leftTotal
		gl := giniPartialInt(lc, leftTotal)
		gr := giniRemainderInt(ci, lc, rightTotal)
		gain := parentGini - (leftTotal*gl+rightTotal*gr)/total
		if gain > bestGain {
			bestThr = cur + (next-cur)/2
			bestGain = gain
			ok = true
		}
	}
	return bestThr, bestGain, ok
}

// randomSplit draws one uniform threshold in the feature's observed
// range (the Extra Trees rule) and scores it, all over the node's row
// list exactly as the reference scans its sample list.
func (fb *fastTreeBuilder) randomSplit(fr fastFrame, f int, counts []float64, total, parentGini float64) (float64, float64, bool) {
	rows := fb.rows[fr.start:fr.end]
	vals := fb.colv[f*fb.n : (f+1)*fb.n]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range rows {
		v := vals[s]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		return 0, 0, false // no draw, matching the reference's guard
	}
	thr := fb.rng.Uniform(lo, hi)
	minLeaf := fb.t.cfg.MinLeaf
	var gl, gr, leftTotal, rightTotal float64
	var nLeft int
	if fb.uniform {
		lc := fb.leftInt
		for i := range lc {
			lc[i] = 0
		}
		y8 := fb.y8
		for _, s := range rows {
			if vals[s] <= thr {
				lc[y8[s]]++
				nLeft++
			}
		}
		if nLeft < minLeaf || len(rows)-nLeft < minLeaf {
			return 0, 0, false
		}
		leftTotal = float64(nLeft)
		rightTotal = total - leftTotal
		if leftTotal <= 0 || rightTotal <= 0 {
			return 0, 0, false
		}
		gl = giniPartialInt(lc, leftTotal)
		gr = giniRemainderInt(fb.countsInt, lc, rightTotal)
	} else {
		leftCounts := fb.leftCounts
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		for _, s := range rows {
			if vals[s] <= thr {
				leftCounts[fb.y[s]] += fb.w[s]
				leftTotal += fb.w[s]
				nLeft++
			}
		}
		if nLeft < minLeaf || len(rows)-nLeft < minLeaf {
			return 0, 0, false
		}
		rightTotal = total - leftTotal
		if leftTotal <= 0 || rightTotal <= 0 {
			return 0, 0, false
		}
		gl = giniPartial(leftCounts, leftTotal)
		gr = giniRemainder(counts, leftCounts, rightTotal)
	}
	gain := parentGini - (leftTotal*gl+rightTotal*gr)/total
	if gain <= 0 {
		return 0, 0, false
	}
	return thr, gain, true
}

// partition splits the node's segment of every maintained array around
// the marks set by node().
func (fb *fastTreeBuilder) partition(start, end int) {
	if fb.work != nil {
		for f := 0; f < fb.nf; f++ {
			stablePartitionIV(fb.work[f*fb.n+start:f*fb.n+end], fb.wval[f*fb.n+start:f*fb.n+end],
				fb.marks, fb.tmpL, fb.tmpR, fb.tmpLF, fb.tmpRF)
		}
	}
	stablePartition(fb.rows[start:end], fb.marks, fb.tmpL, fb.tmpR)
}

// stablePartition compacts the rows marked 1 to the front of seg,
// preserving relative order on both sides — which keeps sorted columns
// sorted and row lists ascending within each child. Every element is
// written to both scratch arrays unconditionally and only the cursors
// depend on the mark, so the loop carries no data-dependent branch (the
// left/right pattern of real splits is close to random, and a predicted
// branch per element costs more than the extra store).
func stablePartition(seg []int32, marks []uint8, tmpL, tmpR []int32) {
	nl, nr := 0, 0
	for _, s := range seg {
		d := int(marks[s])
		tmpL[nl] = s
		tmpR[nr] = s
		nl += d
		nr += 1 - d
	}
	copy(seg, tmpL[:nl])
	copy(seg[nl:], tmpR[:nr])
}

// stablePartitionIV is stablePartition over an index segment and its
// parallel value segment, keeping the two aligned through the split.
func stablePartitionIV(segI []int32, segV []float64, marks []uint8, tmpL, tmpR []int32, tmpLF, tmpRF []float64) {
	nl, nr := 0, 0
	for i, s := range segI {
		d := int(marks[s])
		v := segV[i]
		tmpL[nl] = s
		tmpR[nr] = s
		tmpLF[nl] = v
		tmpRF[nr] = v
		nl += d
		nr += 1 - d
	}
	copy(segI, tmpL[:nl])
	copy(segI[nl:], tmpR[:nr])
	copy(segV, tmpLF[:nl])
	copy(segV[nl:], tmpRF[:nr])
}

// giniPartialInt is giniPartial over integer class counts: each count is
// an exact small integer, so float64(c)/total reproduces the reference's
// running-float-sum division bit for bit.
func giniPartialInt(counts []int32, total float64) float64 {
	if total <= 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range counts {
		p := float64(c) / total
		sumSq += p * p
	}
	return 1 - sumSq
}

// giniRemainderInt computes the right-side Gini from integer counts
// without materializing the subtraction: counts[i]-leftCounts[i] in
// int32 equals the reference's float subtraction of the same exact
// integers.
func giniRemainderInt(counts, leftCounts []int32, rightTotal float64) float64 {
	if rightTotal <= 0 {
		return 0
	}
	sumSq := 0.0
	for i := range counts {
		p := float64(counts[i]-leftCounts[i]) / rightTotal
		sumSq += p * p
	}
	return 1 - sumSq
}
