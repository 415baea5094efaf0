package core

import (
	"math"
	"testing"

	"rush/internal/dataset"
	"rush/internal/mlkit"
)

// shortCampaign collects a small but learnable dataset once for the whole
// test package.
var shortCampaign *CollectResult

func campaign(t *testing.T) *CollectResult {
	t.Helper()
	if shortCampaign == nil {
		res, err := Collect(CollectConfig{Days: 25, Seed: 42, Incident: true})
		if err != nil {
			t.Fatal(err)
		}
		shortCampaign = res
	}
	return shortCampaign
}

func TestCollectProducesBothScopes(t *testing.T) {
	res := campaign(t)
	if res.JobScope.Len() == 0 || res.AllScope.Len() != res.JobScope.Len() {
		t.Fatalf("scope sizes: job=%d all=%d", res.JobScope.Len(), res.AllScope.Len())
	}
	// 7 apps x 2-3 runs/day x 25 days ~ 435 samples.
	if res.JobScope.Len() < 350 || res.JobScope.Len() > 500 {
		t.Fatalf("unexpected sample count %d", res.JobScope.Len())
	}
	// Feature vectors must be full width and finite.
	for _, s := range res.JobScope.Samples[:10] {
		if len(s.Features) != dataset.NumFeatures {
			t.Fatalf("feature width %d", len(s.Features))
		}
		for j, f := range s.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("feature %d invalid: %v", j, f)
			}
		}
	}
}

func TestCollectCoversAllApps(t *testing.T) {
	res := campaign(t)
	st := res.JobScope.Stats()
	if len(st) != 7 {
		t.Fatalf("stats cover %d apps", len(st))
	}
	for app, s := range st {
		if s.N < 40 {
			t.Fatalf("app %s has only %d runs", app, s.N)
		}
		if s.Std <= 0 || s.Mean <= 0 {
			t.Fatalf("app %s has degenerate stats %+v", app, s)
		}
	}
}

func TestCollectImbalancedButPresentVariation(t *testing.T) {
	res := campaign(t)
	y := res.JobScope.BinaryLabels()
	pos := 0
	for _, v := range y {
		if v == 1 {
			pos++
		}
	}
	rate := float64(pos) / float64(len(y))
	// Variation is rare but must exist (the paper's imbalance).
	if rate < 0.02 || rate > 0.30 {
		t.Fatalf("positive rate %.3f outside the plausible band", rate)
	}
}

func TestCollectVariationProneApps(t *testing.T) {
	// Laghos/LBANN/sw4lite should show larger relative spread than
	// Kripke/PENNANT, as in the paper's Figure 1.
	st := campaign(t).JobScope.Stats()
	cv := func(app string) float64 { return st[app].Std / st[app].Mean }
	for _, volatile := range []string{"Laghos", "LBANN", "sw4lite"} {
		for _, steady := range []string{"Kripke", "PENNANT"} {
			if cv(volatile) <= cv(steady) {
				t.Fatalf("%s (cv=%.3f) should vary more than %s (cv=%.3f)",
					volatile, cv(volatile), steady, cv(steady))
			}
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	a, err := Collect(CollectConfig{Days: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(CollectConfig{Days: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.JobScope.Len() != b.JobScope.Len() {
		t.Fatal("sample counts differ across identical campaigns")
	}
	for i := range a.JobScope.Samples {
		sa, sb := a.JobScope.Samples[i], b.JobScope.Samples[i]
		if sa.RunTime != sb.RunTime || sa.App != sb.App {
			t.Fatalf("sample %d differs: %v/%v vs %v/%v", i, sa.App, sa.RunTime, sb.App, sb.RunTime)
		}
		for j := range sa.Features {
			if sa.Features[j] != sb.Features[j] {
				t.Fatalf("sample %d feature %d differs", i, j)
			}
		}
	}
}

func TestCollectSeedSensitivity(t *testing.T) {
	a, _ := Collect(CollectConfig{Days: 3, Seed: 1})
	b, _ := Collect(CollectConfig{Days: 3, Seed: 2})
	same := 0
	n := a.JobScope.Len()
	if b.JobScope.Len() < n {
		n = b.JobScope.Len()
	}
	for i := 0; i < n; i++ {
		if a.JobScope.Samples[i].RunTime == b.JobScope.Samples[i].RunTime {
			same++
		}
	}
	if same > n/10 {
		t.Fatalf("different seeds produce near-identical campaigns (%d/%d equal)", same, n)
	}
}

func TestIncidentRaisesVariation(t *testing.T) {
	with := campaign(t).JobScope // Incident: true
	without, err := Collect(CollectConfig{Days: 25, Seed: 42, Incident: false})
	if err != nil {
		t.Fatal(err)
	}
	countPos := func(ds *dataset.Dataset) int {
		n := 0
		for _, v := range ds.BinaryLabels() {
			if v == 1 {
				n++
			}
		}
		return n
	}
	// The incident window concentrates slow runs mid-campaign: mean
	// run times during the window should exceed the campaign mean.
	incidentStart := 12.5 * Day
	incidentEnd := incidentStart + 14*Day // clipped by campaign end
	var inMean, outMean float64
	var inN, outN int
	for _, s := range with.Samples {
		st := with.Stats()[s.App]
		rel := s.RunTime / st.Min
		if s.StartTime >= incidentStart && s.StartTime < incidentEnd {
			inMean += rel
			inN++
		} else {
			outMean += rel
			outN++
		}
	}
	inMean /= float64(inN)
	outMean /= float64(outN)
	if inMean <= outMean {
		t.Fatalf("incident window should run slower: in=%.3f out=%.3f", inMean, outMean)
	}
	_ = countPos(without.JobScope) // both campaigns must at least label
}

func TestCompareModelsAndSelectBest(t *testing.T) {
	res := campaign(t)
	scores, err := CompareModels(res.JobScope, "job-nodes", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("got %d scores", len(scores))
	}
	for _, s := range scores {
		if s.F1 < 0.55 {
			t.Fatalf("%s F1 = %.3f, too low to be useful", s.Model, s.F1)
		}
		if s.Accuracy < 0.9 {
			t.Fatalf("%s accuracy = %.3f", s.Model, s.Accuracy)
		}
	}
	best, err := SelectBest(scores)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s.F1 > best.F1 {
			t.Fatal("SelectBest did not pick the max")
		}
	}
	if _, err := SelectBest(nil); err == nil {
		t.Fatal("empty scores should error")
	}
}

func TestNewModelNames(t *testing.T) {
	if n := len(AllModels()); n != 4 {
		t.Fatalf("paper compares 4 models, got %d", n)
	}
	for _, name := range AllModels() {
		m, err := NewModel(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil || m.Name() != string(name) {
			t.Fatalf("NewModel(%s) = %v", name, m)
		}
	}
	if _, err := NewModel("bogus", 1); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestTrainPredictor(t *testing.T) {
	res := campaign(t)
	p, err := TrainPredictor(res.JobScope, ModelAdaBoost, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model == nil || p.ModelName != ModelAdaBoost {
		t.Fatal("predictor incomplete")
	}
	if len(p.Stats) != 7 {
		t.Fatalf("stats cover %d apps", len(p.Stats))
	}
	if p.CVF1 <= 0 {
		t.Fatalf("CV F1 = %v", p.CVF1)
	}
	// The deployed model is three-class: it must emit only 0/1/2.
	pred := p.Model.Predict(res.JobScope.Samples[0].Features)
	if pred < 0 || pred > 2 {
		t.Fatalf("prediction %d outside three classes", pred)
	}
}

func TestTrainPredictorPartialApps(t *testing.T) {
	res := campaign(t)
	four := []string{"AMG", "Kripke", "sw4lite", "SWFFT"}
	p, err := TrainPredictor(res.JobScope, ModelAdaBoost, four, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reference stats must still cover every app (PDPA judges the three
	// held-out apps against their own history).
	if len(p.Stats) != 7 {
		t.Fatalf("partial-app predictor lost reference stats: %d apps", len(p.Stats))
	}
}

func TestTrainPredictorErrors(t *testing.T) {
	if _, err := TrainPredictor(&dataset.Dataset{}, ModelAdaBoost, nil, 1); err == nil {
		t.Fatal("empty dataset should error")
	}
	res := campaign(t)
	if _, err := TrainPredictor(res.JobScope, "bogus", nil, 1); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestPredictorSerializationRoundTrip(t *testing.T) {
	res := campaign(t)
	p, err := TrainPredictor(res.JobScope, ModelDecisionForest, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := mlkit.SaveModel(p.Model)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := mlkit.LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.JobScope.Samples[:25] {
		if loaded.Predict(s.Features) != p.Model.Predict(s.Features) {
			t.Fatal("round-tripped predictor diverges")
		}
	}
}

func TestTrainPredictorCapturesReference(t *testing.T) {
	res := campaign(t)
	p, err := TrainPredictor(res.JobScope, ModelAdaBoost, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := p.Reference
	if ref == nil {
		t.Fatal("predictor has no drift reference")
	}
	if len(ref.Edges) != dataset.NumFeatures || len(ref.Props) != dataset.NumFeatures {
		t.Fatalf("reference profiles %d/%d columns, want %d", len(ref.Edges), len(ref.Props), dataset.NumFeatures)
	}
	if ref.VariationRate < 0 || ref.VariationRate > 1 {
		t.Fatalf("training variation rate = %v", ref.VariationRate)
	}
}
