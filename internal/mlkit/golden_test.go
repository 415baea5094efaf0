package mlkit

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

// inferenceGolden renders, for each model of fastModels trained on one
// fixed NaN-holed dataset, a hash of its SaveModel bytes and, per probe
// sample, the Predict label and the bits of every PredictProba entry.
// predict selects which of a model's inference entry points fills a
// line, so the same text is produced from every one of them.
func inferenceGolden(t *testing.T, predict func(m FastProbaPredictor, sample []float64) (int, []float64)) []byte {
	t.Helper()
	x, y := synthData(29, 160, 12, 3, 0.05)
	probe, _ := synthData(30, 50, 12, 3, 0.15)
	var sb strings.Builder
	for mi, m := range fastModels(t, x, y) {
		data, err := SaveModel(m)
		if err != nil {
			t.Fatalf("%s: save: %v", m.Name(), err)
		}
		h := fnv.New64a()
		h.Write(data)
		fmt.Fprintf(&sb, "model %d %s bytes=%016x\n", mi, m.Name(), h.Sum64())
		loaded, err := LoadModel(data)
		if err != nil {
			t.Fatalf("%s: load: %v", m.Name(), err)
		}
		for _, c := range []FastProbaPredictor{m, loaded.(FastProbaPredictor)} {
			for si, s := range probe {
				label, probs := predict(c, s)
				fmt.Fprintf(&sb, "%d %d", si, label)
				for _, p := range probs {
					fmt.Fprintf(&sb, " %016x", math.Float64bits(p))
				}
				sb.WriteByte('\n')
			}
		}
	}
	return []byte(sb.String())
}

// TestInferenceGolden compares every inference entry point, on fitted
// and on reloaded models, against testdata/inference.golden. The file
// was written by the allocating per-model vote loops and the
// struct-of-arrays tree walk that preceded the single node layout, so it
// is what still checks the current loops against those.
func TestInferenceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/inference.golden")
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(m FastProbaPredictor, s []float64) (int, []float64){
		"Predict+PredictProba": func(m FastProbaPredictor, s []float64) (int, []float64) {
			return m.Predict(s), m.PredictProba(s)
		},
		"PredictProbaInto": func(m FastProbaPredictor, s []float64) (int, []float64) {
			out := make([]float64, len(m.Classes()))
			return m.PredictProbaInto(s, out), out
		},
	}
	for name, predict := range entries {
		if got := inferenceGolden(t, predict); !bytes.Equal(got, want) {
			t.Errorf("%s: output differs from testdata/inference.golden (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}
