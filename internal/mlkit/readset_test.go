package mlkit

import (
	"math"
	"slices"
	"testing"

	"rush/internal/sim"
)

// readSet returns MarkRead's marks for c over nf features.
func readSet(c Classifier, nf int) []bool {
	read := make([]bool, nf)
	MarkRead(c, read)
	return read
}

// TestReadSetIsSound checks that a model's reported read set is all that
// prediction reads. For stump and depth-2 AdaBoost, ExtraTrees and
// RandomForest, fitted and after a SaveModel→LoadModel round trip, every
// feature outside the set is overwritten with random finite values, the
// largest finite magnitudes, NaN, +Inf and -Inf in turn, and
// PredictProbaInto's class and every output bit must stay as they were.
// The loaded model must report the fitted one's set, and the set must
// leave features out, or the check would prove nothing.
func TestReadSetIsSound(t *testing.T) {
	const nf = 60
	x, y := synthData(21, 300, nf, 3, 0.05)
	models := []FastProbaPredictor{
		NewAdaBoost(AdaBoostConfig{Rounds: 25, Seed: 6, Workers: 1}),
		NewAdaBoost(AdaBoostConfig{Rounds: 10, Depth: 2, Seed: 7, Workers: 1}),
		NewExtraTrees(ForestConfig{Trees: 6, MaxDepth: 3, Seed: 5, Workers: 1}),
		NewRandomForest(ForestConfig{Trees: 6, MaxDepth: 3, Seed: 4, Workers: 1}),
	}
	rng := sim.NewSource(3).Derive("unread")
	fills := []func() float64{
		func() float64 { return rng.Uniform(-1e6, 1e6) },
		func() float64 { return math.Copysign(math.MaxFloat64, rng.Uniform(-1, 1)) },
		math.NaN,
		func() float64 { return math.Inf(1) },
		func() float64 { return math.Inf(-1) },
	}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		read := readSet(m, nf)
		if n := countMarked(read); n == 0 || n == nf {
			t.Fatalf("%s reads %d of %d features; the test needs a proper subset", m.Name(), n, nf)
		}
		blob, err := SaveModel(m)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := readSet(loaded, nf); !slices.Equal(got, read) {
			t.Fatalf("%s: the loaded model reads %v, the fitted one %v", m.Name(), got, read)
		}
		for _, model := range []FastProbaPredictor{m, loaded.(FastProbaPredictor)} {
			want := make([]float64, len(model.Classes()))
			got := make([]float64, len(want))
			alt := make([]float64, nf)
			for si, s := range x[:80] {
				wantClass := model.PredictProbaInto(s, want)
				for fi, fill := range fills {
					for f := range alt {
						alt[f] = s[f]
						if !read[f] {
							alt[f] = fill()
						}
					}
					if gotClass := model.PredictProbaInto(alt, got); gotClass != wantClass {
						t.Fatalf("%s sample %d fill %d: class %d, %d with unread features as they were", m.Name(), si, fi, gotClass, wantClass)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s sample %d fill %d: output %d = %v, %v with unread features as they were", m.Name(), si, fi, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestMarkReadAllWithoutReader checks that a model which does not say
// what it reads (KNN) is taken to read every feature.
func TestMarkReadAllWithoutReader(t *testing.T) {
	x, y := synthData(2, 60, 8, 2, 0)
	knn := NewKNN(KNNConfig{K: 3})
	if err := knn.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if n := countMarked(readSet(knn, 8)); n != 8 {
		t.Fatalf("KNN marked %d of 8 features; want all", n)
	}
}

func countMarked(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}
