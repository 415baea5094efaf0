package mlkit

import (
	"fmt"
	"math"
	"sort"

	"rush/internal/parallel"
)

// KNNConfig controls the K-Nearest-Neighbors classifier.
type KNNConfig struct {
	// K is the neighborhood size (default 5).
	K int
	// Workers bounds the concurrency of per-query distance evaluation:
	// 0 uses GOMAXPROCS, 1 is serial. Distances are pure functions
	// slotted by training-row index, so every worker count predicts
	// identically. Small training sets (under parallelDistanceMin rows)
	// always evaluate serially; a goroutine fan-out would cost more than
	// the arithmetic it spreads. A runtime knob, not model state —
	// excluded from serialization.
	Workers int `json:"-"`
}

// parallelDistanceMin is the training-set size below which KNN distance
// evaluation stays serial.
const parallelDistanceMin = 512

// KNN is a K-Nearest-Neighbors classifier with per-feature
// standardization (counters live on wildly different scales, so raw
// Euclidean distance would be dominated by the largest counters).
type KNN struct {
	cfg     KNNConfig
	x       [][]float64
	y       []int
	classes []int
	scaler  *Scaler
}

// NewKNN returns an untrained KNN classifier.
func NewKNN(cfg KNNConfig) *KNN {
	if cfg.K <= 0 {
		cfg.K = 5
	}
	return &KNN{cfg: cfg}
}

// Name implements Classifier.
func (k *KNN) Name() string { return "KNN" }

// NumFeatures reports how many leading entries of a sample inference
// reads; 0 before Fit.
func (k *KNN) NumFeatures() int {
	if len(k.x) == 0 {
		return 0
	}
	return len(k.x[0])
}

// Fit implements Classifier by memorizing the standardized training set.
func (k *KNN) Fit(x [][]float64, y []int) error {
	if _, err := validateXY(x, y); err != nil {
		return err
	}
	k.scaler = NewScaler()
	k.scaler.Fit(x)
	k.x = k.scaler.TransformAll(x)
	k.y = append([]int(nil), y...)
	k.classes = classSet(y)
	return nil
}

// hit pairs one training row's distance to the query with its label.
type hit struct {
	d float64
	y int
}

// hitLess is the neighbor order: nearest first, ties broken toward the
// smaller class label — the comparator the former full sort used.
func hitLess(a, b hit) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.y < b.y
}

// selectTopK returns the kk smallest hits under hitLess, in order,
// without sorting the rest: a bounded insertion pass that is O(n·kk)
// worst case but O(n + kk²) in practice, since once the boundary
// settles almost every hit fails the single comparison against it.
// Hits equal under hitLess are identical structs, so which of them
// lands on the boundary cannot change the result.
func selectTopK(hits []hit, kk int) []hit {
	top := make([]hit, 0, kk)
	for _, h := range hits {
		if len(top) == kk && !hitLess(h, top[kk-1]) {
			continue
		}
		pos := sort.Search(len(top), func(i int) bool { return hitLess(h, top[i]) })
		if len(top) < kk {
			top = append(top, hit{})
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = h
	}
	return top
}

// nearest computes every training row's distance to sample — fanning the
// evaluation across the pool in contiguous row chunks when the training
// set is large enough to amortize it — and returns the K nearest hits
// sorted by (distance, label). Distances slot by row index, so the
// selection (and every prediction built from it) is identical at any
// worker count.
func (k *KNN) nearest(sample []float64) ([]hit, int) {
	if len(k.x) == 0 {
		panic("mlkit: predict before fit")
	}
	q := k.scaler.Transform(sample[:k.NumFeatures()]) // a longer sample is legal, as for the tree models
	hits := make([]hit, len(k.x))
	workers := parallel.Workers(k.cfg.Workers)
	if len(k.x) < parallelDistanceMin || workers == 1 {
		for i, row := range k.x {
			hits[i] = hit{d: nanSqDist(row, q), y: k.y[i]}
		}
	} else {
		chunk := (len(k.x) + workers - 1) / workers
		if err := parallel.Run(workers, workers, func(c int) error {
			lo := c * chunk
			hi := lo + chunk
			if hi > len(k.x) {
				hi = len(k.x)
			}
			for i := lo; i < hi; i++ {
				hits[i] = hit{d: nanSqDist(k.x[i], q), y: k.y[i]}
			}
			return nil
		}); err != nil {
			panic(err) // tasks never error; only a captured panic lands here
		}
	}
	kk := k.cfg.K
	if kk > len(hits) {
		kk = len(hits)
	}
	return selectTopK(hits, kk), kk
}

// Predict implements Classifier with a plurality vote over the K nearest
// training samples; ties break toward the smaller class label.
func (k *KNN) Predict(sample []float64) int {
	hits, kk := k.nearest(sample)
	votes := map[int]int{}
	for _, h := range hits[:kk] {
		votes[h.y]++
	}
	best, bestN := -1, -1
	for _, c := range k.classes {
		if votes[c] > bestN {
			best, bestN = c, votes[c]
		}
	}
	return best
}

// Classes returns the sorted training labels.
func (k *KNN) Classes() []int { return k.classes }

// PredictProba returns the neighborhood vote fractions per class, in
// Classes order.
func (k *KNN) PredictProba(sample []float64) []float64 {
	hits, kk := k.nearest(sample)
	probs := make([]float64, len(k.classes))
	pos := map[int]int{}
	for i, c := range k.classes {
		pos[c] = i
	}
	for _, h := range hits[:kk] {
		probs[pos[h.y]] += 1 / float64(kk)
	}
	return probs
}

// nanSqDist returns the squared Euclidean distance between row and q over
// the dimensions where both values are defined, rescaled to the full
// dimensionality so partially missing queries remain comparable to
// complete ones. A query with no usable dimension is infinitely far.
func nanSqDist(row, q []float64) float64 {
	var d float64
	used := 0
	for j := range row {
		if math.IsNaN(row[j]) || math.IsNaN(q[j]) {
			continue
		}
		diff := row[j] - q[j]
		d += diff * diff
		used++
	}
	if used == 0 {
		return math.Inf(1)
	}
	return d * float64(len(row)) / float64(used)
}

// Scaler standardizes features to zero mean and unit variance.
// Zero-variance features transform to zero; missing (NaN) values stay
// missing.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// NewScaler returns an unfit scaler.
func NewScaler() *Scaler { return &Scaler{} }

// Fit computes per-feature means and standard deviations.
func (s *Scaler) Fit(x [][]float64) {
	if len(x) == 0 {
		return
	}
	nf := len(x[0])
	s.Mean = make([]float64, nf)
	s.Std = make([]float64, nf)
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(x)))
	}
}

// Transform standardizes one sample.
func (s *Scaler) Transform(row []float64) []float64 {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("mlkit: scaler saw %d features, sample has %d", len(s.Mean), len(row)))
	}
	out := make([]float64, len(row))
	for j, v := range row {
		switch {
		case math.IsNaN(v):
			out[j] = math.NaN()
		case s.Std[j] > 0:
			out[j] = (v - s.Mean[j]) / s.Std[j]
		}
	}
	return out
}

// TransformAll standardizes every row.
func (s *Scaler) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}
