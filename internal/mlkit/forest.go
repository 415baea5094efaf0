package mlkit

import (
	"fmt"

	"rush/internal/parallel"
	"rush/internal/sim"
)

// ForestConfig controls ensemble training for Random Forests and Extra
// Trees.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds each tree (0 = unlimited).
	MaxDepth int
	// MinLeaf is the per-tree minimum leaf size (default 1).
	MinLeaf int
	// MaxFeatures is the per-split candidate count (default SqrtFeatures).
	MaxFeatures int
	// Seed drives bootstrapping and per-tree randomness.
	Seed int64
	// Workers bounds concurrent tree fitting: 0 uses GOMAXPROCS, 1 is
	// serial. Bootstrap samples and per-tree seeds are drawn serially
	// before the fan-out, so every worker count fits the identical
	// model. A runtime knob, not model state — excluded from
	// serialization.
	Workers int `json:"-"`
}

func (c *ForestConfig) fill() {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MaxFeatures == 0 {
		c.MaxFeatures = SqrtFeatures
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 1
	}
}

// Forest is a bagged ensemble of CART trees. Use NewRandomForest (the
// paper's "Decision Forest": bootstrap sampling + exact splits) or
// NewExtraTrees (no bootstrap + random-threshold splits).
type Forest struct {
	cfg       ForestConfig
	bootstrap bool
	randomThr bool
	name      string
	trees     []*Tree
	classes   []int
	imp       []float64
	// treePos[t][i] is where tree t's class i lands in the forest's class
	// list (a bootstrap resample can miss a rare class, so tree class
	// lists are mapped into the forest's). Derived by compile after Fit
	// and LoadModel, never serialized.
	treePos [][]int32
}

// NewRandomForest returns a Random Forest classifier.
func NewRandomForest(cfg ForestConfig) *Forest {
	cfg.fill()
	return &Forest{cfg: cfg, bootstrap: true, name: "DecisionForest"}
}

// NewExtraTrees returns an Extremely Randomized Trees classifier.
func NewExtraTrees(cfg ForestConfig) *Forest {
	cfg.fill()
	return &Forest{cfg: cfg, randomThr: true, name: "ExtraTrees"}
}

// Name implements Classifier.
func (f *Forest) Name() string { return f.name }

// Fit implements Classifier.
func (f *Forest) Fit(x [][]float64, y []int) error {
	nf, err := validateXY(x, y)
	if err != nil {
		return err
	}
	f.classes = classSet(y)
	f.trees = make([]*Tree, f.cfg.Trees)
	f.imp = make([]float64, nf)
	rng := sim.NewSource(f.cfg.Seed).Derive("forest")

	// Draw every tree's randomness serially first — bootstrap resample,
	// then seed, in tree order, exactly the draw sequence of a serial
	// fit — so the parallel fan-out below cannot perturb the stream.
	type treeJob struct {
		x     [][]float64
		y     []int
		picks []int // bootstrap resample (original row per position), nil without bootstrap
		seed  int64
	}
	jobs := make([]treeJob, f.cfg.Trees)
	for t := range jobs {
		tx, ty := x, y
		var picks []int
		if f.bootstrap {
			tx = make([][]float64, len(x))
			ty = make([]int, len(y))
			picks = make([]int, len(x))
			for i := range tx {
				j := rng.Intn(len(x))
				tx[i] = x[j]
				ty[i] = y[j]
				picks[i] = j
			}
		}
		jobs[t] = treeJob{x: tx, y: ty, picks: picks, seed: rng.Int63()}
	}

	// Presort the original matrix once and derive each bootstrap tree's
	// sorted columns from it (bootstrapCtx) instead of sorting per tree;
	// Extra Trees never consult sorted order, so they share just the
	// column-major values.
	master := &trainCtx{colv: columnMajor(x, nf)}
	if f.bootstrap && !f.randomThr {
		master.cols = presortColumns(master.colv, nf, len(x), f.cfg.Workers)
	}

	if err := parallel.Run(f.cfg.Workers, f.cfg.Trees, func(t int) error {
		tree := NewTree(TreeConfig{
			MaxDepth:        f.cfg.MaxDepth,
			MinLeaf:         f.cfg.MinLeaf,
			MaxFeatures:     f.cfg.MaxFeatures,
			RandomThreshold: f.randomThr,
			Seed:            jobs[t].seed,
		})
		tc := master
		if jobs[t].picks != nil {
			tc = bootstrapCtx(master, nf, len(x), jobs[t].picks)
		}
		err := tree.fitCtx(jobs[t].x, jobs[t].y, tc)
		if tc != master {
			tc.release() // pooled bootstrap buffers; the fit retains nothing from them
		}
		if err != nil {
			return fmt.Errorf("mlkit: tree %d: %w", t, err)
		}
		f.trees[t] = tree
		return nil
	}); err != nil {
		return err
	}
	// Importances accumulate after the join, in tree order: float
	// addition is not associative, so summing in completion order would
	// let the worker count leak into the model.
	for _, tree := range f.trees {
		for i, v := range tree.Importances() {
			f.imp[i] += v
		}
	}
	var total float64
	for _, v := range f.imp {
		total += v
	}
	if total > 0 {
		for i := range f.imp {
			f.imp[i] /= total
		}
	}
	f.compile()
	return nil
}

// compile fills treePos.
func (f *Forest) compile() {
	pos := map[int]int32{}
	for i, c := range f.classes {
		pos[c] = int32(i)
	}
	f.treePos = make([][]int32, len(f.trees))
	for ti, t := range f.trees {
		tp := make([]int32, len(t.classes))
		for i, c := range t.classes {
			tp[i] = pos[c]
		}
		f.treePos[ti] = tp
	}
}

// Predict implements Classifier by soft-voting tree probabilities. It
// allocates nothing for a model of up to three classes.
func (f *Forest) Predict(sample []float64) int {
	var buf [voteBufLen]float64
	return f.PredictProbaInto(sample, voteBuf(&buf, len(f.classes)))
}

// PredictProba returns the ensemble-average class distribution for
// sample, in Classes order.
func (f *Forest) PredictProba(sample []float64) []float64 {
	probs := make([]float64, len(f.classes))
	f.PredictProbaInto(sample, probs)
	return probs
}

// PredictProbaInto implements FastProbaPredictor: the forest's one vote
// loop, tree-major and in tree-class order within a tree.
func (f *Forest) PredictProbaInto(sample, out []float64) int {
	if len(f.trees) == 0 {
		panic("mlkit: predict before fit")
	}
	for i := range out {
		out[i] = 0
	}
	for ti, t := range f.trees {
		probs := t.PredictProba(sample)
		for i, p := range f.treePos[ti] {
			out[p] += probs[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return f.classes[argmax(out)]
}

// Classes returns the sorted training labels.
func (f *Forest) Classes() []int { return f.classes }

// NumFeatures reports how many leading entries of a sample inference may
// read (every tree of a forest has the same width); 0 before Fit.
func (f *Forest) NumFeatures() int {
	if len(f.trees) == 0 {
		return 0
	}
	return f.trees[0].nFeatures
}

// MarkRead implements FeatureReader: the union over the trees.
func (f *Forest) MarkRead(read []bool) {
	for _, t := range f.trees {
		t.MarkRead(read)
	}
}

// NumNodes reports the total stored nodes across all trees.
func (f *Forest) NumNodes() int {
	total := 0
	for _, t := range f.trees {
		total += t.NumNodes()
	}
	return total
}

// Importances implements ImportanceReporter by averaging per-tree Gini
// importances.
func (f *Forest) Importances() []float64 { return f.imp }
