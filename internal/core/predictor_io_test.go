package core

import (
	"bytes"
	"testing"

	"rush/internal/mlkit"
)

func TestPredictorSaveLoad(t *testing.T) {
	res := campaign(t)
	p, err := TrainPredictor(res.JobScope, ModelAdaBoost, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName != p.ModelName || loaded.CVF1 != p.CVF1 {
		t.Fatal("metadata lost in round trip")
	}
	if len(loaded.Stats) != len(p.Stats) {
		t.Fatal("stats lost in round trip")
	}
	for _, s := range res.JobScope.Samples[:30] {
		if loaded.Model.Predict(s.Features) != p.Model.Predict(s.Features) {
			t.Fatal("model predictions changed after round trip")
		}
	}
}

func TestPredictorSaveLoadErrors(t *testing.T) {
	p := &Predictor{}
	if _, err := p.Save(); err == nil {
		t.Fatal("saving an empty predictor should error")
	}
	if _, err := LoadPredictor([]byte("junk")); err == nil {
		t.Fatal("loading junk should error")
	}
	if _, err := LoadPredictor([]byte(`{"model_name":"AdaBoost","model":{"kind":"alien"}}`)); err == nil {
		t.Fatal("loading an unknown model kind should error")
	}
}

// TestPredictorLoadIgnoresReference pins the file format across the
// removal of the drift-reference profile: Save writes no "reference" key,
// and a file that still carries one loads to the same predictor.
func TestPredictorLoadIgnoresReference(t *testing.T) {
	res := campaign(t)
	p, err := TrainPredictor(res.JobScope, ModelAdaBoost, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"reference"`)) {
		t.Fatal("Save wrote a reference key")
	}
	old, err := LoadPredictor([]byte(`{"model_name":"AdaBoost","cv_f1":0.9,` +
		`"stats":{"AMG":{"n":10,"mean":100,"std":5,"min":90}},` +
		`"reference":{"edges":[[0.5,1.5]],"props":[[0.2,0.3,0.5]],"lo":[0],"hi":[2],"variation_rate":0.1},` +
		`"model":` + string(modelJSON(t, p)) + `}`))
	if err != nil {
		t.Fatalf("a file with a reference key must still load: %v", err)
	}
	if old.ModelName != ModelAdaBoost || old.CVF1 != 0.9 || old.Stats["AMG"].N != 10 {
		t.Fatalf("fields around the reference key lost: %+v", old)
	}
	for _, s := range res.JobScope.Samples[:30] {
		if old.Model.Predict(s.Features) != p.Model.Predict(s.Features) {
			t.Fatal("model predictions changed after loading a file with a reference key")
		}
	}
}

func modelJSON(t *testing.T, p *Predictor) []byte {
	t.Helper()
	blob, err := mlkit.SaveModel(p.Model)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
