package mlkit

import (
	"math"
	"strings"
	"testing"
	"time"
)

// roundTrip saves and reloads a model, asserting identical predictions on
// the training matrix.
func roundTrip(t *testing.T, m Classifier, x [][]float64) Classifier {
	t.Helper()
	data, err := SaveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != m.Name() {
		t.Fatalf("name changed: %q -> %q", m.Name(), loaded.Name())
	}
	a, b := PredictBatch(m, x), PredictBatch(loaded, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d changed after round trip: %d -> %d", i, a[i], b[i])
		}
	}
	return loaded
}

func TestSaveLoadTree(t *testing.T) {
	x, y := synthBinary(200, 2, 2, 0.3, 31)
	m := NewTree(TreeConfig{MaxDepth: 5})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, x)
}

func TestSaveLoadForest(t *testing.T) {
	x, y := synthBinary(200, 2, 2, 0.3, 32)
	m := NewRandomForest(ForestConfig{Trees: 8, MaxDepth: 4, Seed: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, m, x).(*Forest)
	if len(loaded.Importances()) != 4 {
		t.Fatal("importances lost in round trip")
	}
}

func TestSaveLoadExtraTrees(t *testing.T) {
	x, y := synthBinary(200, 2, 2, 0.3, 33)
	m := NewExtraTrees(ForestConfig{Trees: 8, MaxDepth: 6, Seed: 2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, x)
}

func TestSaveLoadAdaBoost(t *testing.T) {
	x, y := synthBinary(200, 2, 2, 0.3, 34)
	m := NewAdaBoost(AdaBoostConfig{Rounds: 20})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, x)
}

func TestSaveLoadKNN(t *testing.T) {
	x, y := synthBinary(120, 2, 2, 0.3, 35)
	m := NewKNN(KNNConfig{K: 3})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m, x)
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel([]byte("not json")); err == nil {
		t.Fatal("garbage should error")
	}
	if _, err := LoadModel([]byte(`{"kind":"alien"}`)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := LoadModel([]byte(`{"kind":"forest"}`)); err == nil {
		t.Fatal("missing payload should error")
	}
	if _, err := LoadModel([]byte(`{"kind":"tree"}`)); err == nil {
		t.Fatal("missing tree payload should error")
	}
	if _, err := LoadModel([]byte(`{"kind":"adaboost"}`)); err == nil {
		t.Fatal("missing adaboost payload should error")
	}
	if _, err := LoadModel([]byte(`{"kind":"knn"}`)); err == nil {
		t.Fatal("missing knn payload should error")
	}
}

type fakeModel struct{}

func (fakeModel) Fit([][]float64, []int) error { return nil }
func (fakeModel) Predict([]float64) int        { return 0 }
func (fakeModel) Name() string                 { return "fake" }

func TestSaveModelRejectsUnknownType(t *testing.T) {
	if _, err := SaveModel(fakeModel{}); err == nil {
		t.Fatal("unknown model type should error")
	}
}

// malformedModels are blobs that decode as JSON but on which inference
// would index out of range, loop forever or find nothing to vote with.
// LoadModel must refuse each with an error naming field.
var malformedModels = []struct{ field, blob string }{
	{"stumps[0].Feature", `{"kind":"adaboost","adaboost":{"config":{"Depth":1},"classes":[0,1,2],"stumps":[{"Feature":5000,"LeftClass":0,"RightClass":9}],"alphas":[1]}}`},
	{"stumps[0].RightClass", `{"kind":"adaboost","adaboost":{"classes":[0,1,2],"stumps":[{"Feature":1,"LeftClass":0,"RightClass":9}],"alphas":[1],"importances":[0,1]}}`},
	{"stumps[0].LeftClass", `{"kind":"adaboost","adaboost":{"classes":[0,1],"stumps":[{"Feature":1,"LeftClass":-1,"RightClass":1}],"alphas":[1],"importances":[0,1]}}`},
	{"alphas", `{"kind":"adaboost","adaboost":{"classes":[0,1],"stumps":[{"Feature":0,"LeftClass":0,"RightClass":1}],"alphas":[1,2],"importances":[1]}}`},
	{"alphas", `{"kind":"adaboost","adaboost":{"classes":[0,1],"stumps":[],"alphas":[],"importances":[1]}}`},
	{"trees[0].n_features", `{"kind":"adaboost","adaboost":{"classes":[0,1],"trees":[{"classes":[0,1],"n_features":3,"nodes":[{"Probs":[1,0]}]}],"alphas":[1],"importances":[1]}}`},
	{"trees[0].classes", `{"kind":"adaboost","adaboost":{"classes":[0,1],"trees":[{"classes":[0,2],"n_features":1,"nodes":[{"Probs":[1,0]}]}],"alphas":[1],"importances":[1]}}`},
	{"classes", `{"kind":"tree","tree":{"n_features":2,"nodes":[{"Probs":[]}]}}`},
	{"nodes", `{"kind":"tree","tree":{"classes":[0,1],"n_features":2,"nodes":[]}}`},
	{"nodes[0].Left", `{"kind":"tree","tree":{"classes":[0,1],"n_features":2,"nodes":[{"Feature":0,"Left":0,"Right":1},{"Probs":[1,0]}]}}`},
	{"nodes[0].Right", `{"kind":"tree","tree":{"classes":[0,1],"n_features":2,"nodes":[{"Feature":0,"Left":1,"Right":2},{"Probs":[1,0]}]}}`},
	{"nodes[0].Feature", `{"kind":"tree","tree":{"classes":[0,1],"n_features":2,"nodes":[{"Feature":2,"Left":1,"Right":2},{"Probs":[1,0]},{"Probs":[0,1]}]}}`},
	{"nodes[1].Probs", `{"kind":"tree","tree":{"classes":[0,1],"n_features":2,"nodes":[{"Feature":0,"Left":1,"Right":2},{"Probs":[1]},{"Probs":[0,1]}]}}`},
	{"trees", `{"kind":"forest","forest":{"classes":[0,1],"trees":[]}}`},
	{"trees[1].n_features", `{"kind":"forest","forest":{"classes":[0,1],"trees":[{"classes":[0,1],"n_features":2,"nodes":[{"Probs":[1,0]}]},{"classes":[0,1],"n_features":3,"nodes":[{"Probs":[1,0]}]}]}}`},
	{"trees[0].classes", `{"kind":"forest","forest":{"classes":[0,1],"trees":[{"classes":[0,7],"n_features":2,"nodes":[{"Probs":[1,0]}]}]}}`},
	{"trees[0].nodes[0].Left", `{"kind":"forest","forest":{"classes":[0,1],"trees":[{"classes":[0,1],"n_features":2,"nodes":[{"Feature":0,"Left":-1,"Right":1},{"Probs":[1,0]}]}]}}`},
	{"x[1]", `{"kind":"knn","knn":{"config":{"K":1},"x":[[0,1],[2]],"y":[0,1],"classes":[0,1],"scaler":{"Mean":[0,0],"Std":[1,1]}}}`},
	{"x has 2 rows for 1 labels", `{"kind":"knn","knn":{"config":{"K":1},"x":[[0,1],[2,3]],"y":[0],"classes":[0,1],"scaler":{"Mean":[0,0],"Std":[1,1]}}}`},
	{"x has 0 rows", `{"kind":"knn","knn":{"config":{"K":1},"x":[],"y":[],"classes":[0,1],"scaler":{"Mean":[],"Std":[]}}}`},
	{"config.K", `{"kind":"knn","knn":{"config":{"K":0},"x":[[0,1]],"y":[0],"classes":[0],"scaler":{"Mean":[0,0],"Std":[1,1]}}}`},
	{"scaler", `{"kind":"knn","knn":{"config":{"K":1},"x":[[0,1]],"y":[0],"classes":[0]}}`},
	{"scaler", `{"kind":"knn","knn":{"config":{"K":1},"x":[[0,1]],"y":[0],"classes":[0],"scaler":{"Mean":[0,0],"Std":[1]}}}`},
}

func TestLoadModelRejectsMalformed(t *testing.T) {
	for _, m := range malformedModels {
		_, err := LoadModel([]byte(m.blob))
		if err == nil || !strings.Contains(err.Error(), m.field) {
			t.Errorf("want an error naming %q, got %v for %s", m.field, err, m.blob)
		}
	}
	// A blob of a kind this package once wrote takes the unknown-kind
	// error like any other.
	if _, err := LoadModel([]byte(`{"kind":"gbm","gbm":{"classes":[0,1]}}`)); err == nil || !strings.Contains(err.Error(), `unknown model kind "gbm"`) {
		t.Errorf("gbm blob: %v", err)
	}
}

// FuzzLoadModel feeds LoadModel arbitrary bytes, seeded with one saved
// blob per model kind and the malformed fixtures: whatever loads must
// predict a sample of its own NumFeatures() width, all defined and all
// missing, without panicking and without hanging (a tree walk is bounded
// by its node count once child indices are known to increase).
//
// Inputs are cut to maxModelInput bytes and the seed models are small
// (two features, eight samples, every blob under the cap): the fuzzer
// minimizes each new input by trying to remove every run of its bytes,
// which on the several-kilobyte blobs of larger models kept it
// minimizing, not fuzzing, for most of a ten-second run.
func FuzzLoadModel(f *testing.F) {
	x, y := synthData(29, 8, 2, 3, 0) // KNN stores x, and JSON has no NaN
	for _, m := range []Classifier{
		NewTree(TreeConfig{MaxDepth: 3, Seed: 3}),
		NewRandomForest(ForestConfig{Trees: 2, MaxDepth: 1, Seed: 4, Workers: 1}),
		NewExtraTrees(ForestConfig{Trees: 2, MaxDepth: 1, Seed: 5, Workers: 1}),
		NewAdaBoost(AdaBoostConfig{Rounds: 3, Seed: 6, Workers: 1}),
		NewAdaBoost(AdaBoostConfig{Rounds: 1, Depth: 2, Seed: 7, Workers: 1}),
		NewKNN(KNNConfig{K: 3, Workers: 1}),
	} {
		if err := m.Fit(x, y); err != nil {
			f.Fatal(err)
		}
		data, err := SaveModel(m)
		if err != nil || len(data) > maxModelInput {
			f.Fatalf("seed %T: %d bytes, %v", m, len(data), err)
		}
		f.Add(data)
	}
	for _, m := range malformedModels {
		f.Add([]byte(m.blob))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadModel(data[:min(len(data), maxModelInput)])
		if err != nil {
			return
		}
		width := c.(interface{ NumFeatures() int }).NumFeatures()
		if width > 1<<12 {
			t.Skip("n_features is a bare number in a tree payload; do not allocate it")
		}
		pp := c.(ProbaPredictor)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			sample := make([]float64, width)
			for round := 0; round < 2; round++ {
				c.Predict(sample)
				pp.PredictProba(sample)
				if fp, ok := c.(FastProbaPredictor); ok {
					fp.PredictProbaInto(sample, make([]float64, len(fp.Classes())))
				}
				for i := range sample {
					sample[i] = math.NaN()
				}
			}
		}()
		select {
		case r := <-done:
			if r != nil {
				t.Fatalf("prediction on a loaded model panicked: %v", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("prediction on a loaded model did not finish")
		}
	})
}

// maxModelInput is the longest input FuzzLoadModel loads.
const maxModelInput = 1 << 10
