package rush

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// render runs a writer-based report into a string.
func render(t *testing.T, f func(io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := f(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEndToEndPipeline exercises the public façade exactly the way the
// package documentation advertises: collect, train, schedule, report.
func TestEndToEndPipeline(t *testing.T) {
	res, err := Collect(CollectConfig{Days: 30, Seed: 11, Incident: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobScope.Len() < 200 {
		t.Fatalf("campaign too small: %d samples", res.JobScope.Len())
	}

	pred, err := TrainPredictor(res.JobScope, ModelAdaBoost, nil, 1)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := SpecByName("ADAA")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunExperiment(spec, pred, 2, 50, ExperimentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref := BaselineStats(cmp.Baseline)
	base, rushVar := TotalVariation(cmp.Baseline, ref), TotalVariation(cmp.RUSH, ref)
	if base <= 0 {
		t.Fatal("baseline shows no variation at all")
	}
	// This is a smoke test on a deliberately short campaign and few
	// trials; the strong variation-reduction assertion lives in the
	// experiments package. Here we only require RUSH not to make things
	// clearly worse.
	if rushVar > base*1.2 {
		t.Fatalf("RUSH increased variation: %v -> %v", base, rushVar)
	}

	out := render(t, func(w io.Writer) error {
		return errors.Join(ReportVariation(w, cmp, ref), ReportMakespan(w, []*Comparison{cmp}), ReportWaitTimes(w, cmp))
	})
	for _, want := range []string{"ADAA", "TOTAL", "Figure 10", "RUSH"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFacadeBasics(t *testing.T) {
	if len(Apps()) != 7 || len(AppNames()) != 7 {
		t.Fatal("app surface wrong")
	}
	if len(TableII()) != 5 {
		t.Fatal("Table II surface wrong")
	}
	if len(AllModels()) != 4 {
		t.Fatal("model surface wrong")
	}
	if NumFeatures != 282 || len(FeatureNames()) != 282 {
		t.Fatal("feature surface wrong")
	}
	if Quartz().Nodes != 2988 || Pod512().Nodes != 512 {
		t.Fatal("topology surface wrong")
	}
	if DefaultNoise().NodeFraction <= 0 {
		t.Fatal("noise surface wrong")
	}
	if !strings.Contains(render(t, ReportTableI), "282") {
		t.Fatal("Table I report broken")
	}
	if !strings.Contains(render(t, ReportTableII), "PDPA") {
		t.Fatal("Table II report broken")
	}
	m, err := NewModel(ModelDecisionForest, 1)
	if err != nil || m.Name() != "DecisionForest" {
		t.Fatal("model constructor broken")
	}
}

func TestFacadePredictorRoundTrip(t *testing.T) {
	res, err := Collect(CollectConfig{Days: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := TrainPredictor(res.JobScope, ModelDecisionForest, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := pred.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(blob)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName != ModelDecisionForest {
		t.Fatal("round trip lost model name")
	}
}
