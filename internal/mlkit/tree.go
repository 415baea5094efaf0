package mlkit

import (
	"fmt"
	"math"
	"sort"

	"rush/internal/sim"
)

// TreeConfig controls CART training.
type TreeConfig struct {
	// MaxDepth bounds the tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features considered per split: 0
	// means all features, SqrtFeatures means sqrt(n) (the Random Forest
	// default).
	MaxFeatures int
	// RandomThreshold picks one uniform threshold per candidate feature
	// instead of scanning every cut point — the Extra Trees split rule.
	RandomThreshold bool
	// Seed drives feature subsampling and random thresholds.
	Seed int64
	// reference routes training through the per-node-sort treeBuilder
	// below instead of the presorted-column builder (trainfast.go). Both
	// grow bit-identical trees; only this package's differential tests
	// set it (the ensembles copy their own reference field into every
	// tree they fit). Unexported, so it is never serialized.
	reference bool
}

// SqrtFeatures selects sqrt(#features) candidates per split.
const SqrtFeatures = -1

// Tree is a CART decision-tree classifier supporting weighted samples
// (needed by AdaBoost) and feature importances (needed by RFE).
type Tree struct {
	cfg       TreeConfig
	classes   []int
	nFeatures int
	nodes     []treeNode
	imp       []float64
	name      string
}

type treeNode struct {
	// Feature/Threshold route internal nodes; Probs is non-nil at leaves
	// and holds the class distribution in classes order.
	Feature   int
	Threshold float64
	Left      int
	Right     int
	// DefaultLeft routes samples whose split feature is missing (NaN) —
	// the XGBoost-style default direction, set to the heavier child at
	// training time so dropped-out telemetry degrades toward the
	// majority path instead of producing garbage comparisons.
	DefaultLeft bool
	Probs       []float64
}

// NewTree returns an untrained CART with the given configuration.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	name := "DecisionTree"
	if cfg.RandomThreshold {
		name = "ExtraTree"
	}
	return &Tree{cfg: cfg, name: name}
}

// Name implements Classifier.
func (t *Tree) Name() string { return t.name }

// Fit implements Classifier with uniform sample weights.
func (t *Tree) Fit(x [][]float64, y []int) error {
	return t.fitCtx(x, y, nil)
}

// fitCtx is Fit with an optional precomputed column context from an
// ensemble (see trainCtx).
func (t *Tree) fitCtx(x [][]float64, y []int, tc *trainCtx) error {
	w := make([]float64, len(y))
	for i := range w {
		w[i] = 1
	}
	return t.fitWeightedCtx(x, y, w, tc)
}

// FitWeighted trains on weighted samples.
func (t *Tree) FitWeighted(x [][]float64, y []int, w []float64) error {
	return t.fitWeightedCtx(x, y, w, nil)
}

func (t *Tree) fitWeightedCtx(x [][]float64, y []int, w []float64, tc *trainCtx) error {
	nf, err := validateXY(x, y)
	if err != nil {
		return err
	}
	if len(w) != len(y) {
		return fmt.Errorf("mlkit: %d weights for %d samples", len(w), len(y))
	}
	t.nFeatures = nf
	t.classes = classSet(y)
	t.nodes = t.nodes[:0]
	t.imp = make([]float64, nf)

	classIdx := map[int]int{}
	for i, c := range t.classes {
		classIdx[c] = i
	}
	yi := make([]int, len(y))
	for i, label := range y {
		yi[i] = classIdx[label]
	}
	if t.cfg.reference {
		samples := make([]int, len(y))
		for i := range samples {
			samples[i] = i
		}
		b := &treeBuilder{
			t: t, x: x, y: yi, w: w,
			k:   len(t.classes),
			rng: sim.NewSource(t.cfg.Seed),
		}
		b.build(samples, 1)
	} else {
		newFastTreeBuilder(t, x, yi, w, tc).run()
	}
	// Normalize importances to sum to one (when any split happened).
	var total float64
	for _, v := range t.imp {
		total += v
	}
	if total > 0 {
		for i := range t.imp {
			t.imp[i] /= total
		}
	}
	return nil
}

// Predict implements Classifier.
func (t *Tree) Predict(sample []float64) int {
	return t.classes[argmax(t.PredictProba(sample))]
}

// PredictProbaInto implements FastProbaPredictor.
func (t *Tree) PredictProbaInto(sample, out []float64) int {
	probs := t.PredictProba(sample)
	copy(out, probs)
	return t.classes[argmax(probs)]
}

// PredictProba returns the leaf class distribution for sample, in the
// order of Classes. It is the leaf's own slice, returned without
// allocating; callers must not modify it. Every child index exceeds its
// parent's (the builders reserve the parent slot first and LoadModel
// checks it), so the walk ends within len(nodes) steps.
func (t *Tree) PredictProba(sample []float64) []float64 {
	if len(t.nodes) == 0 {
		panic("mlkit: predict before fit")
	}
	i := 0
	for {
		n := &t.nodes[i]
		if n.Probs != nil {
			return n.Probs
		}
		switch v := sample[n.Feature]; {
		case math.IsNaN(v):
			if n.DefaultLeft {
				i = n.Left
			} else {
				i = n.Right
			}
		case v <= n.Threshold:
			i = n.Left
		default:
			i = n.Right
		}
	}
}

// Classes returns the sorted class labels seen during training.
func (t *Tree) Classes() []int { return t.classes }

// Importances implements ImportanceReporter: normalized total Gini
// decrease contributed by each feature.
func (t *Tree) Importances() []float64 { return t.imp }

// NumNodes reports the number of stored nodes (splits plus leaves).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumFeatures reports how many leading entries of a sample inference may
// read; a longer sample is legal, a shorter one is not.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// Depth returns the trained tree's depth (a leaf-only tree has depth 1).
func (t *Tree) Depth() int {
	var walk func(i int) int
	walk = func(i int) int {
		n := &t.nodes[i]
		if n.Probs != nil {
			return 1
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return 1 + l
		}
		return 1 + r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0)
}

type treeBuilder struct {
	t   *Tree
	x   [][]float64
	y   []int
	w   []float64
	k   int
	rng *sim.Source
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
		candidates = b.rng.Perm(nf)[:nCand]
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

// gini returns the Gini impurity of a weighted class histogram.
func gini(counts []float64, total float64) float64 {
	return giniPartial(counts, total)
}

func giniPartial(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range counts {
		p := c / total
		sumSq += p * p
	}
	return 1 - sumSq
}

// giniRemainder computes the Gini of (counts - leftCounts) without
// allocating.
func giniRemainder(counts, leftCounts []float64, rightTotal float64) float64 {
	if rightTotal <= 0 {
		return 0
	}
	sumSq := 0.0
	for i := range counts {
		p := (counts[i] - leftCounts[i]) / rightTotal
		sumSq += p * p
	}
	return 1 - sumSq
}
