package mlkit

import (
	"math"

	"rush/internal/parallel"
	"rush/internal/sim"
)

// AdaBoostConfig controls SAMME training.
type AdaBoostConfig struct {
	// Rounds is the maximum number of boosting rounds (default 150).
	Rounds int
	// LearningRate shrinks each round's contribution (default 1.0).
	LearningRate float64
	// Depth selects the weak learner: 1 (default) uses fast presorted
	// decision stumps; >= 2 uses weighted CART trees of that depth,
	// which can capture interactions (e.g. app type x congestion) a
	// stump cannot.
	Depth int
	// MaxFeatures bounds the per-split feature scan of depth >= 2 weak
	// learners (default 48); ignored for stumps, which always scan every
	// feature.
	MaxFeatures int
	// Seed drives feature subsampling of depth >= 2 weak learners.
	Seed int64
	// Workers bounds the concurrency of the order-independent pieces of
	// a round — the one-off per-feature presort and each round's
	// per-feature stump scan (boosting rounds themselves are inherently
	// sequential): 0 uses GOMAXPROCS, 1 is serial. The per-feature
	// results reduce in feature order, so every worker count fits the
	// identical model. A runtime knob, not model state — excluded from
	// serialization.
	Workers int `json:"-"`
}

func (c *AdaBoostConfig) fill() {
	if c.Rounds <= 0 {
		c.Rounds = 150
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 1
	}
	if c.Depth <= 0 {
		c.Depth = 1
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = 48
	}
}

// AdaBoost is a multi-class SAMME booster over decision stumps — the
// classifier the paper selects for RUSH (highest F1 in Figure 3). Stumps
// are fit with a single presorted pass per feature, so training is
// O(rounds × features × samples).
type AdaBoost struct {
	cfg     AdaBoostConfig
	classes []int
	stumps  []stump // weak learners when Depth == 1
	trees   []*Tree // weak learners when Depth >= 2
	alphas  []float64
	imp     []float64
	// reference is TreeConfig.reference for depth >= 2 weak learners; set
	// only by this package's tests. Stumps have one implementation.
	reference bool
}

// stump is a depth-1 decision rule: class left/right of one threshold.
// DefaultLeft is the side holding more training weight; samples whose
// split feature is missing (NaN) are routed there.
type stump struct {
	Feature     int
	Threshold   float64
	LeftClass   int // index into classes
	RightClass  int
	DefaultLeft bool
}

func (s stump) predict(sample []float64) int {
	v := sample[s.Feature]
	if math.IsNaN(v) {
		if s.DefaultLeft {
			return s.LeftClass
		}
		return s.RightClass
	}
	if v <= s.Threshold {
		return s.LeftClass
	}
	return s.RightClass
}

// NewAdaBoost returns an untrained SAMME booster.
func NewAdaBoost(cfg AdaBoostConfig) *AdaBoost {
	cfg.fill()
	return &AdaBoost{cfg: cfg}
}

// Name implements Classifier.
func (a *AdaBoost) Name() string { return "AdaBoost" }

// Rounds returns the number of boosting rounds actually performed.
func (a *AdaBoost) Rounds() int { return len(a.alphas) }

// NumFeatures reports how many leading entries of a sample inference may
// read.
func (a *AdaBoost) NumFeatures() int { return len(a.imp) }

// NumNodes reports the total decision nodes across the weak learners
// (each stump counts as one).
func (a *AdaBoost) NumNodes() int {
	total := len(a.stumps)
	for _, t := range a.trees {
		total += t.NumNodes()
	}
	return total
}

// Fit implements Classifier.
func (a *AdaBoost) Fit(x [][]float64, y []int) error {
	nf, err := validateXY(x, y)
	if err != nil {
		return err
	}
	a.classes = classSet(y)
	k := len(a.classes)
	classIdx := map[int]int{}
	for i, c := range a.classes {
		classIdx[c] = i
	}
	yi := make([]int, len(y))
	for i, label := range y {
		yi[i] = classIdx[label]
	}

	// Presort feature columns once (the shared fast-path structure from
	// presort.go); every stump round rescans the same sorted order, and
	// depth >= 2 tree weak learners partition a per-round copy of it
	// instead of re-sorting per node.
	n := len(x)
	var colv []float64
	var cols *sortedCols
	if a.cfg.Depth == 1 || !a.reference {
		colv = columnMajor(x, nf)
		cols = presortColumns(colv, nf, n, a.cfg.Workers)
	}
	var treeCtx *trainCtx
	if a.cfg.Depth >= 2 && !a.reference {
		treeCtx = &trainCtx{colv: colv, cols: cols}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	a.stumps = a.stumps[:0]
	a.trees = a.trees[:0]
	a.alphas = a.alphas[:0]
	a.imp = make([]float64, nf)
	seedRng := sim.NewSource(a.cfg.Seed).Derive("adaboost")

	randomGuess := 1 - 1/float64(k)
	for round := 0; round < a.cfg.Rounds; round++ {
		// Fit this round's weak learner on the current weights.
		var predict func([]float64) int
		var learnerImp []float64
		var st stump
		var tree *Tree
		var errRate float64
		if a.cfg.Depth == 1 {
			st, errRate = bestStump(colv, n, yi, w, k, cols, a.cfg.Workers)
			if st.Feature < 0 {
				break
			}
			predict = st.predict
		} else {
			tree = NewTree(TreeConfig{
				MaxDepth:    a.cfg.Depth + 1, // CART counts the root as a level
				MaxFeatures: a.cfg.MaxFeatures,
				Seed:        seedRng.Int63(),
				reference:   a.reference,
			})
			if err := tree.fitWeightedCtx(x, yi, w, treeCtx); err != nil {
				return err
			}
			predict = tree.Predict
			learnerImp = tree.Importances()
			errRate = 0
			for i := range w {
				if predict(x[i]) != yi[i] {
					errRate += w[i]
				}
			}
		}
		if errRate >= randomGuess {
			break // no weak learner beats random guessing anymore
		}

		perfect := errRate <= 1e-10
		var alpha float64
		if perfect {
			// Perfect weak learner: large finite vote, then stop.
			alpha = a.cfg.LearningRate * (math.Log(1e10) + math.Log(float64(k)-1))
		} else {
			alpha = a.cfg.LearningRate * (math.Log((1-errRate)/errRate) + math.Log(float64(k)-1))
		}
		a.alphas = append(a.alphas, alpha)
		if a.cfg.Depth == 1 {
			a.stumps = append(a.stumps, st)
			a.imp[st.Feature] += alpha
		} else {
			a.trees = append(a.trees, tree)
			for f, v := range learnerImp {
				a.imp[f] += alpha * v
			}
		}
		if perfect {
			break
		}

		// Reweight: misclassified samples up, then renormalize.
		var sum float64
		for i := range w {
			if predict(x[i]) != yi[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(a.alphas) == 0 {
		// Degenerate data (e.g. a single class): fall back to a constant
		// stump predicting the majority class so Predict stays total.
		counts := make([]float64, k)
		for _, c := range yi {
			counts[c]++
		}
		m := argmax(counts)
		a.cfg.Depth = 1
		a.stumps = append(a.stumps, stump{Feature: 0, Threshold: math.Inf(1), LeftClass: m, RightClass: m})
		a.alphas = append(a.alphas, 1)
	}
	var total float64
	for _, v := range a.imp {
		total += v
	}
	if total > 0 {
		for i := range a.imp {
			a.imp[i] /= total
		}
	}
	return nil
}

// bestStump finds the weighted-error-minimizing stump across all
// features using the presorted column structure (colv column-major
// values, cols canonical per-feature order). Features scan concurrently
// (bounded by workers) and their candidates reduce in feature order
// with a strict less-than, so the winner — and therefore the fitted
// model — is the one a serial ascending scan would pick, at any worker
// count. It returns Feature == -1 when no feature has two distinct
// values.
func bestStump(colv []float64, n int, yi []int, w []float64, k int, cols *sortedCols, workers int) (stump, float64) {
	var totalCounts []float64
	totalCounts = make([]float64, k)
	var totalW float64
	for i, wi := range w {
		totalCounts[yi[i]] += wi
		totalW += wi
	}

	// Per-feature candidates, slotted by feature index.
	type candidate struct {
		st  stump
		err float64
	}
	nf := len(colv) / n
	cands := make([]candidate, nf)
	err := parallel.Run(workers, nf, func(f int) error {
		idx := cols.col(f)
		vals := colv[f*n : (f+1)*n]
		fBest := candidate{st: stump{Feature: -1}, err: math.Inf(1)}
		leftCounts := make([]float64, k)
		var leftW float64
		for p := 0; p < len(idx)-1; p++ {
			s := idx[p]
			leftCounts[yi[s]] += w[s]
			leftW += w[s]
			v, next := vals[s], vals[idx[p+1]]
			if v == next {
				continue
			}
			// Error = total - (best left class mass) - (best right class mass).
			bl, br := 0, 0
			blw, brw := -1.0, -1.0
			for c := 0; c < k; c++ {
				if leftCounts[c] > blw {
					blw = leftCounts[c]
					bl = c
				}
				if r := totalCounts[c] - leftCounts[c]; r > brw {
					brw = r
					br = c
				}
			}
			e := totalW - blw - brw
			if e < fBest.err {
				fBest.err = e
				fBest.st = stump{
					Feature: f, Threshold: v + (next-v)/2,
					LeftClass: bl, RightClass: br,
					DefaultLeft: leftW >= totalW-leftW,
				}
			}
		}
		cands[f] = fBest
		return nil
	})
	if err != nil {
		// The scan tasks never return errors, so this can only be a
		// captured panic; re-raise it as the serial scan would have.
		panic(err)
	}

	best := stump{Feature: -1}
	bestErr := math.Inf(1)
	for _, c := range cands {
		if c.st.Feature >= 0 && c.err < bestErr {
			bestErr = c.err
			best = c.st
		}
	}
	if best.Feature < 0 {
		return best, 1
	}
	return best, bestErr / totalW
}

// Predict implements Classifier via the SAMME weighted vote.
func (a *AdaBoost) Predict(sample []float64) int {
	return a.PredictProbaInto(sample, make([]float64, len(a.classes)))
}

// PredictProba returns the normalized SAMME vote shares per class, in
// Classes order — a pseudo-probability suitable for threshold-based
// decision rules.
func (a *AdaBoost) PredictProba(sample []float64) []float64 {
	votes := make([]float64, len(a.classes))
	a.PredictProbaInto(sample, votes)
	return votes
}

// PredictProbaInto implements FastProbaPredictor: the booster's one vote
// loop. The predicted class is the argmax of the raw alpha votes, taken
// before they are normalized into shares. A fitted or loaded model has
// either stumps or trees, never both, one per alpha.
func (a *AdaBoost) PredictProbaInto(sample, out []float64) int {
	if len(a.alphas) == 0 {
		panic("mlkit: predict before fit")
	}
	for i := range out {
		out[i] = 0
	}
	var total float64
	for i, alpha := range a.alphas {
		if len(a.trees) > 0 {
			out[a.trees[i].Predict(sample)] += alpha
		} else {
			out[a.stumps[i].predict(sample)] += alpha
		}
		total += alpha
	}
	class := a.classes[argmax(out)]
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return class
}

// Classes returns the sorted training labels.
func (a *AdaBoost) Classes() []int { return a.classes }

// Importances implements ImportanceReporter: each feature's share of the
// total boosting vote.
func (a *AdaBoost) Importances() []float64 { return a.imp }
