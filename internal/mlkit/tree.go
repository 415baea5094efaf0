package mlkit

import (
	"fmt"
	"math"
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
}

// SqrtFeatures selects sqrt(#features) candidates per split.
const SqrtFeatures = -1

// oracleBuild, when set, grows every tree in place of the presorted-column
// builder (trainfast.go), from class indices y. It is nil in production;
// only this package's differential tests set it, to the per-node-sort
// oracle, and reset it.
var oracleBuild func(t *Tree, x [][]float64, y []int, w []float64)

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

// fitWeightedCtx trains on weighted samples (AdaBoost's depth >= 2 weak
// learners), presorting its own columns when tc is nil.
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
	if oracleBuild != nil {
		oracleBuild(t, x, yi, w)
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

// MarkRead implements FeatureReader: the features of the split nodes.
func (t *Tree) MarkRead(read []bool) {
	for i := range t.nodes {
		if n := &t.nodes[i]; n.Probs == nil {
			read[n.Feature] = true
		}
	}
}

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
