package mlkit

import (
	"bytes"
	"math"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/sim"
)

// synthData builds a deterministic k-class dataset with informative
// features, plus some NaN holes to exercise default-direction routing.
func synthData(seed int64, n, nf, k int, nanP float64) ([][]float64, []int) {
	rng := sim.NewSource(seed).Derive("synth")
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, nf)
		c := rng.Intn(k)
		for j := range row {
			row[j] = rng.Normal(float64(c)*float64(j%3), 1.0)
			if rng.Float64() < nanP {
				row[j] = math.NaN()
			}
		}
		x[i] = row
		y[i] = c
	}
	return x, y
}

// fastModels returns one trained instance of every FastProbaPredictor.
func fastModels(t *testing.T, x [][]float64, y []int) []FastProbaPredictor {
	t.Helper()
	models := []FastProbaPredictor{
		NewTree(TreeConfig{MaxDepth: 6, Seed: 3}),
		NewRandomForest(ForestConfig{Trees: 12, MaxDepth: 5, Seed: 4, Workers: 1}),
		NewExtraTrees(ForestConfig{Trees: 12, MaxDepth: 5, Seed: 5, Workers: 1}),
		NewAdaBoost(AdaBoostConfig{Rounds: 20, Seed: 6, Workers: 1}),
		NewAdaBoost(AdaBoostConfig{Rounds: 10, Depth: 2, Seed: 7, Workers: 1}),
	}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
	return models
}

// checkFastMatches asserts PredictProbaInto == (PredictProba, Predict)
// bit for bit on every sample.
func checkFastMatches(t *testing.T, m FastProbaPredictor, samples [][]float64) {
	t.Helper()
	out := make([]float64, len(m.Classes()))
	for si, s := range samples {
		want := m.PredictProba(s)
		wantClass := m.Predict(s)
		gotClass := m.PredictProbaInto(s, out)
		if gotClass != wantClass {
			t.Fatalf("%s sample %d: PredictProbaInto class %d, Predict %d", m.Name(), si, gotClass, wantClass)
		}
		if len(want) != len(out) {
			t.Fatalf("%s sample %d: proba length %d vs %d", m.Name(), si, len(out), len(want))
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s sample %d class %d: fast %v (0x%x) vs ref %v (0x%x)",
					m.Name(), si, i, out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestFlatPredictMatchesPointerWalk pins the three inference entry
// points to each other: for every tree-based model, over several seeds
// and class counts, PredictProbaInto must be bit-identical to
// (PredictProba, Predict) — including on samples with NaN (missing)
// features. TestInferenceGolden pins all of them to the loops that
// preceded the shared one.
func TestFlatPredictMatchesPointerWalk(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, k := range []int{2, 3} {
			x, y := synthData(seed, 160, 12, k, 0.05)
			probe, _ := synthData(seed+100, 60, 12, k, 0.15)
			for _, m := range fastModels(t, x, y) {
				checkFastMatches(t, m, probe)
			}
		}
	}
}

// TestFlatPredictZeroAllocs pins the allocation contract of inference
// for every model: PredictProbaInto into the caller's buffer, and
// Predict called the way the gate calls it, through the Classifier
// interface, which on a three-class ensemble votes on its stack.
func TestFlatPredictZeroAllocs(t *testing.T) {
	x, y := synthData(17, 160, 12, 3, 0.05)
	probe, _ := synthData(18, 8, 12, 3, 0.1)
	for i, m := range fastModels(t, x, y) {
		out := make([]float64, len(m.Classes()))
		var c Classifier = m
		for name, infer := range map[string]func(s []float64){
			"PredictProbaInto": func(s []float64) { m.PredictProbaInto(s, out) },
			"Predict":          func(s []float64) { c.Predict(s) },
		} {
			if objects, _ := alloctest.Count(5, nil, func() {
				for _, s := range probe {
					infer(s)
				}
			}); objects != 0 {
				t.Errorf("model %d (%s): %s allocated %d objects over %d samples; want 0", i, m.Name(), name, objects, len(probe))
			}
		}
	}
}

// TestFlatSurvivesSerializationRoundtrip checks that (a) inference
// leaves model bytes alone — a fit model serializes to the same bytes
// after heavy use — and (b) a loaded model is a FastProbaPredictor whose
// entry points agree with each other and with the original's.
func TestFlatSurvivesSerializationRoundtrip(t *testing.T) {
	x, y := synthData(29, 160, 12, 3, 0.05)
	probe, _ := synthData(30, 40, 12, 3, 0.1)
	for _, m := range fastModels(t, x, y) {
		before, err := SaveModel(m)
		if err != nil {
			t.Fatalf("%s: save: %v", m.Name(), err)
		}
		out := make([]float64, len(m.Classes()))
		for _, s := range probe {
			m.PredictProbaInto(s, out)
		}
		after, err := SaveModel(m)
		if err != nil {
			t.Fatalf("%s: re-save: %v", m.Name(), err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: inference changed serialized bytes", m.Name())
		}

		loadedC, err := LoadModel(before)
		if err != nil {
			t.Fatalf("%s: load: %v", m.Name(), err)
		}
		loaded, ok := loadedC.(FastProbaPredictor)
		if !ok {
			t.Fatalf("%s: loaded model is not a FastProbaPredictor", m.Name())
		}
		checkFastMatches(t, loaded, probe)
		// Loaded and original agree with each other, too.
		lout := make([]float64, len(loaded.Classes()))
		for si, s := range probe {
			mc := m.PredictProbaInto(s, out)
			lc := loaded.PredictProbaInto(s, lout)
			if mc != lc {
				t.Fatalf("%s sample %d: class %d after roundtrip, %d before", m.Name(), si, lc, mc)
			}
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(lout[i]) {
					t.Fatalf("%s sample %d: proba drifted across roundtrip", m.Name(), si)
				}
			}
		}
	}
}
