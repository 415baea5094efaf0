package mlkit

import (
	"math"
	"sort"

	"rush/internal/sim"
)

// treeBuilder is the per-node-sort CART builder, the oracle the
// presorted-column builder in trainfast.go is differenced against: every
// node sorts its rows per candidate feature with sort.Slice and recurses
// left before right. viaReference puts it on the oracleBuild seam.
type treeBuilder struct {
	t   *Tree
	x   [][]float64
	y   []int
	w   []float64
	k   int
	rng *sim.Source
}

// buildReference grows t from the class indices y with treeBuilder.
func buildReference(t *Tree, x [][]float64, y []int, w []float64) {
	samples := make([]int, len(y))
	for i := range samples {
		samples[i] = i
	}
	b := &treeBuilder{
		t: t, x: x, y: y, w: w,
		k:   len(t.classes),
		rng: sim.NewSource(t.cfg.Seed),
	}
	b.build(samples, 1)
}

// viaReference runs fit with every tree grown by the oracle, whichever
// model fits it (the ensembles still presort, and the oracle ignores what
// they hand it), and restores the production builder afterwards, also
// when fit fails the test.
func viaReference(fit func()) {
	oracleBuild = buildReference
	defer func() { oracleBuild = nil }()
	fit()
}

// build grows the subtree over samples and returns its node index.
func (b *treeBuilder) build(samples []int, depth int) int {
	counts := make([]float64, b.k)
	var total float64
	for _, s := range samples {
		counts[b.y[s]] += b.w[s]
		total += b.w[s]
	}
	leaf := func() int {
		probs := make([]float64, b.k)
		if total > 0 {
			for i, c := range counts {
				probs[i] = c / total
			}
		}
		b.t.nodes = append(b.t.nodes, treeNode{Probs: probs})
		return len(b.t.nodes) - 1
	}

	if len(samples) < 2*b.t.cfg.MinLeaf || total <= 0 {
		return leaf()
	}
	if b.t.cfg.MaxDepth > 0 && depth >= b.t.cfg.MaxDepth {
		return leaf()
	}
	parentGini := gini(counts, total)
	if parentGini == 0 {
		return leaf()
	}

	feat, thr, gain := b.bestSplit(samples, counts, total, parentGini)
	if feat < 0 {
		return leaf()
	}

	left := make([]int, 0, len(samples))
	right := make([]int, 0, len(samples))
	for _, s := range samples {
		if b.x[s][feat] <= thr {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	if len(left) < b.t.cfg.MinLeaf || len(right) < b.t.cfg.MinLeaf {
		return leaf()
	}
	b.t.imp[feat] += gain * total
	var leftW float64
	for _, s := range left {
		leftW += b.w[s]
	}

	// Reserve this node's slot before recursing so children land after it.
	idx := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, treeNode{Feature: feat, Threshold: thr, DefaultLeft: leftW >= total-leftW})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.t.nodes[idx].Left = l
	b.t.nodes[idx].Right = r
	return idx
}

// bestSplit scans candidate features and returns the best (feature,
// threshold, gini gain), or feature -1 when no valid split exists.
func (b *treeBuilder) bestSplit(samples []int, counts []float64, total, parentGini float64) (int, float64, float64) {
	nf := b.t.nFeatures
	nCand := resolveCandidates(b.t.cfg.MaxFeatures, nf)
	var candidates []int
	if nCand == nf {
		candidates = make([]int, nf)
		for i := range candidates {
			candidates[i] = i
		}
	} else {
		candidates = b.rng.Rand().Perm(nf)[:nCand]
	}

	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	for _, f := range candidates {
		var thr, gain float64
		var ok bool
		if b.t.cfg.RandomThreshold {
			thr, gain, ok = b.randomSplit(samples, f, counts, total, parentGini)
		} else {
			thr, gain, ok = b.exactSplit(samples, f, counts, total, parentGini)
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

// exactSplit scans every cut point of feature f. The sort uses the
// canonical column order (colLess: ascending, NaN last, row-index
// tie-break) so the scan sequence — and with it every floating-point
// accumulation — matches the fast path's presorted columns exactly.
func (b *treeBuilder) exactSplit(samples []int, f int, counts []float64, total, parentGini float64) (float64, float64, bool) {
	order := make([]int, len(samples))
	copy(order, samples)
	sort.Slice(order, func(i, j int) bool {
		p, q := order[i], order[j]
		return colLess(b.x[p][f], b.x[q][f], int32(p), int32(q))
	})

	leftCounts := make([]float64, b.k)
	var leftTotal float64
	bestThr, bestGain, ok := 0.0, 0.0, false
	for i := 0; i < len(order)-1; i++ {
		s := order[i]
		leftCounts[b.y[s]] += b.w[s]
		leftTotal += b.w[s]
		v, next := b.x[s][f], b.x[order[i+1]][f]
		if v == next {
			continue
		}
		if i+1 < b.t.cfg.MinLeaf || len(order)-i-1 < b.t.cfg.MinLeaf {
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
			bestThr = v + (next-v)/2
			bestGain = gain
			ok = true
		}
	}
	return bestThr, bestGain, ok
}

// randomSplit draws one uniform threshold in the feature's observed range
// (the Extra Trees rule) and scores it.
func (b *treeBuilder) randomSplit(samples []int, f int, counts []float64, total, parentGini float64) (float64, float64, bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		v := b.x[s][f]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		return 0, 0, false
	}
	thr := b.rng.Uniform(lo, hi)
	leftCounts := make([]float64, b.k)
	var leftTotal float64
	nLeft := 0
	for _, s := range samples {
		if b.x[s][f] <= thr {
			leftCounts[b.y[s]] += b.w[s]
			leftTotal += b.w[s]
			nLeft++
		}
	}
	nRight := len(samples) - nLeft
	if nLeft < b.t.cfg.MinLeaf || nRight < b.t.cfg.MinLeaf {
		return 0, 0, false
	}
	rightTotal := total - leftTotal
	if leftTotal <= 0 || rightTotal <= 0 {
		return 0, 0, false
	}
	gl := giniPartial(leftCounts, leftTotal)
	gr := giniRemainder(counts, leftCounts, rightTotal)
	gain := parentGini - (leftTotal*gl+rightTotal*gr)/total
	if gain <= 0 {
		return 0, 0, false
	}
	return thr, gain, true
}
