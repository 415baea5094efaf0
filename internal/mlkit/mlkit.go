// Package mlkit is a from-scratch, stdlib-only implementation of the
// machine-learning stack the paper's variability predictor uses: CART
// decision trees, Random Forests ("Decision Forest" in the paper's Figure
// 3), Extremely Randomized Trees, AdaBoost (SAMME) over decision stumps,
// and K-Nearest Neighbors, together with stratified and
// leave-one-group-out cross-validation, F1/precision/recall metrics, and
// recursive feature elimination.
//
// All classifiers implement the Classifier interface and operate on dense
// float64 feature matrices with integer class labels (0, 1 for the
// paper's binary model-selection task; 0, 1, 2 for the deployed
// no/little/variation model).
package mlkit

import (
	"fmt"
	"sort"
)

// Classifier is a multi-class classification model.
type Classifier interface {
	// Fit trains the model on feature matrix x (rows are samples) and
	// labels y.
	Fit(x [][]float64, y []int) error
	// Predict returns the predicted class of one sample.
	Predict(sample []float64) int
	// Name returns a short human-readable model name for reports.
	Name() string
}

// ProbaPredictor is implemented by models that can report per-class
// probabilities (or vote shares). Threshold-based decision rules — like
// the RUSH gate's probability mode — require it. All four candidate
// models implement it.
type ProbaPredictor interface {
	Classifier
	// PredictProba returns one probability per class, aligned with
	// Classes, summing to one.
	PredictProba(sample []float64) []float64
	// Classes returns the sorted class labels seen during training.
	Classes() []int
}

// FastProbaPredictor is implemented by models whose probability inference
// runs without heap allocation — every tree-family model. The RUSH gate
// uses it when available. The ensembles define Predict and PredictProba
// through it, so each has one vote loop and the three cannot disagree.
type FastProbaPredictor interface {
	ProbaPredictor
	// PredictProbaInto writes the class distribution for sample into out
	// (which must have length len(Classes())) and returns the predicted
	// class label, identical to Predict(sample). It performs no heap
	// allocations and, on a trained model, is safe for concurrent use.
	PredictProbaInto(sample, out []float64) int
}

// ImportanceReporter is implemented by models that can rank features;
// recursive feature elimination prefers it when available.
type ImportanceReporter interface {
	// Importances returns one non-negative score per feature; higher
	// means more important. Only valid after Fit.
	Importances() []float64
}

// NodeCounter is implemented by tree-family models that can report how
// many decision nodes training grew — the natural unit for training-cost
// observability (work per Fit is roughly nodes × features scanned).
type NodeCounter interface {
	// NumNodes returns the total stored nodes (splits plus leaves, one
	// per stump). Only valid after Fit.
	NumNodes() int
}

// ModelNodes reports c's trained node count, or 0 for models without a
// tree structure (e.g. KNN).
func ModelNodes(c Classifier) int {
	if nc, ok := c.(NodeCounter); ok {
		return nc.NumNodes()
	}
	return 0
}

// PredictBatch applies c.Predict to every row of x.
func PredictBatch(c Classifier, x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = c.Predict(row)
	}
	return out
}

// validateXY checks the usual shape invariants shared by every Fit.
func validateXY(x [][]float64, y []int) (nFeatures int, err error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("mlkit: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("mlkit: %d samples but %d labels", len(x), len(y))
	}
	nFeatures = len(x[0])
	if nFeatures == 0 {
		return 0, fmt.Errorf("mlkit: samples have no features")
	}
	for i, row := range x {
		if len(row) != nFeatures {
			return 0, fmt.Errorf("mlkit: sample %d has %d features, want %d", i, len(row), nFeatures)
		}
	}
	for i, label := range y {
		if label < 0 {
			return 0, fmt.Errorf("mlkit: negative label %d at sample %d", label, i)
		}
	}
	return nFeatures, nil
}

// classSet returns the sorted distinct labels in y.
func classSet(y []int) []int {
	seen := map[int]bool{}
	for _, v := range y {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// argmax returns the index of the largest value, breaking ties toward the
// lower index for determinism.
func argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// SelectColumns returns a copy of x restricted to the given column
// indices, in order. It is the feature-subsetting primitive RFE uses.
func SelectColumns(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		sub := make([]float64, len(cols))
		for j, c := range cols {
			sub[j] = row[c]
		}
		out[i] = sub
	}
	return out
}
