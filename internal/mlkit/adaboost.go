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

// MarkRead implements FeatureReader: the union over the weak learners.
func (a *AdaBoost) MarkRead(read []bool) {
	for _, s := range a.stumps {
		read[s.Feature] = true
	}
	for _, t := range a.trees {
		t.MarkRead(read)
	}
}

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
	colv := columnMajor(x, nf)
	cols := presortColumns(colv, nf, n, a.cfg.Workers)
	var treeCtx *trainCtx
	var scan *stumpScan
	if a.cfg.Depth >= 2 {
		treeCtx = &trainCtx{colv: colv, cols: cols}
	} else {
		scan = newStumpScan(cols, yi, k, a.cfg.Workers)
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
			st, errRate = scan.bestStump(w)
			if st.Feature < 0 {
				break
			}
			predict = st.predict
		} else {
			tree = NewTree(TreeConfig{
				MaxDepth:    a.cfg.Depth + 1, // CART counts the root as a level
				MaxFeatures: a.cfg.MaxFeatures,
				Seed:        seedRng.Int63(),
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

// stumpScan is a stump Fit's search state, built once per Fit and
// reused by every round: the presorted columns, each sorted position's
// class laid out like cols.idx, and every feature's class-mass scratch
// (k running left masses, k at the best cut, 8 of padding that keeps
// concurrently scanned features off one cache line) and candidate slot.
type stumpScan struct {
	cols    *sortedCols
	yi      []int
	ys      []int32
	workers int
	totals  []float64
	masses  []float64
	cands   []stumpCand
}

type stumpCand struct {
	st  stump
	err float64
}

func newStumpScan(cols *sortedCols, yi []int, k, workers int) *stumpScan {
	ys := make([]int32, len(cols.idx))
	for p, s := range cols.idx {
		ys[p] = int32(yi[s])
	}
	nf := len(cols.idx) / cols.n
	return &stumpScan{cols: cols, yi: yi, ys: ys, workers: workers, totals: make([]float64, k),
		masses: make([]float64, nf*(2*k+8)), cands: make([]stumpCand, nf)}
}

// bestStump finds the weighted-error-minimizing stump across all features
// under weights w. Each feature's bestCut reads its sorted values,
// classes and row indices in sequence; the feature's stump, argmax
// classes included, is built once from the masses at its best cut.
// Features scan concurrently (bounded by workers) and their candidates
// reduce in feature order with a strict less-than, so the winner — and
// therefore the fitted model — is the one a serial ascending scan would
// pick, at any worker count. It returns Feature == -1 when no feature
// has two distinct values.
func (sc *stumpScan) bestStump(w []float64) (stump, float64) {
	k, n, totals := len(sc.totals), sc.cols.n, sc.totals
	clear(totals)
	var totalW float64
	for i, wi := range w {
		totals[sc.yi[i]] += wi
		totalW += wi
	}
	err := parallel.Run(sc.workers, len(sc.cands), func(f int) error {
		vals, m := sc.cols.val[f*n:(f+1)*n], sc.masses[f*(2*k+8):]
		p, e, leftW := bestCut(vals, sc.cols.col(f), sc.ys[f*n:(f+1)*n], w, m[:k], m[k:2*k], totals, totalW)
		sc.cands[f] = stumpCand{st: stump{Feature: -1}, err: e}
		if p < 0 {
			return nil
		}
		bl, br, blw, brw := 0, 0, -1.0, -1.0
		for c, l := range m[k : 2*k] {
			if l > blw {
				blw, bl = l, c
			}
			if r := totals[c] - l; r > brw {
				brw, br = r, c
			}
		}
		v, next := vals[p], vals[p+1]
		sc.cands[f].st = stump{Feature: f, Threshold: v + (next-v)/2, LeftClass: bl, RightClass: br,
			DefaultLeft: leftW >= totalW-leftW}
		return nil
	})
	if err != nil {
		// The scan tasks never return errors, so this can only be a
		// captured panic; re-raise it as the serial scan would have.
		panic(err)
	}

	best := stump{Feature: -1}
	bestErr := math.Inf(1)
	for _, c := range sc.cands {
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

// bestCut scans one feature's sorted column for the first cut, between
// positions p and p+1 with distinct values, of least weighted error
// totalW - (largest left class mass) - (largest right class mass). It
// returns p (-1 for a constant column), the error and the weight left of
// the cut, and leaves the left class masses there in atBest. Weights are
// non-negative, so left masses only grow and right masses only shrink:
// the left maximum is a running one, and the right maximum is re-read
// from the class that held it and recomputed over all classes only when
// that class falls below the runner-up. Both are the floats a full pass
// over the classes finds. The class being accumulated stays in a
// register until the class changes. A third of cuts improve on the
// campaign, so rather than copy the masses at each, the scan snapshots
// them at most once per 64 positions and afterwards re-adds, in scan
// order, the positions from the snapshot to the best cut: the same sums.
func bestCut(vals []float64, idx, ys []int32, w, left, atBest, tot []float64, totalW float64) (int, float64, float64) {
	clear(left)
	clear(atBest)
	tot, atBest = tot[:len(left)], atBest[:len(left)]
	bestP, bestErr, bestLeftW, mark := -1, math.Inf(1), 0.0, -1
	var leftW, maxL, maxR, lc float64
	cls, rArg, runnerUp := ys[0], ys[0], math.Inf(1)
	idx, ys = idx[:len(vals)-1], ys[:len(vals)-1]
	for p, s := range idx {
		wi := w[s]
		if c := ys[p]; c != cls {
			left[cls], cls, lc = lc, c, left[c]
		}
		lc += wi
		leftW += wi
		if lc > maxL {
			maxL = lc
		}
		if vals[p] == vals[p+1] {
			continue
		}
		left[cls] = lc
		if maxR = tot[rArg] - left[rArg]; maxR < runnerUp {
			maxR, runnerUp = -1, -1
			for c, l := range left {
				if r := tot[c] - l; r > maxR {
					runnerUp, maxR, rArg = maxR, r, int32(c)
				} else if r > runnerUp {
					runnerUp = r
				}
			}
		}
		if e := totalW - maxL - maxR; e < bestErr {
			bestP, bestErr, bestLeftW = p, e, leftW
			if p-mark > 64 {
				copy(atBest, left)
				mark = p
			}
		}
	}
	for q := mark + 1; q <= bestP; q++ {
		atBest[ys[q]] += w[idx[q]]
	}
	return bestP, bestErr, bestLeftW
}

// Predict implements Classifier via the SAMME weighted vote. It
// allocates nothing for a model of up to three classes.
func (a *AdaBoost) Predict(sample []float64) int {
	var buf [voteBufLen]float64
	return a.PredictProbaInto(sample, voteBuf(&buf, len(a.classes)))
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
