package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/faults"
	"rush/internal/mlkit"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// hiddenReads forwards a model's inference and width but not its read
// set (mlkit.FeatureReader), so a RUSH gate over it has the sampler
// compute all 90 counters.
type hiddenReads struct{ mlkit.Classifier }

func (h hiddenReads) NumFeatures() int {
	return h.Classifier.(interface{ NumFeatures() int }).NumFeatures()
}

// TestCounterMaskChangesNoTrial runs RUSH trials twice, once with the
// gate's sampler computing only the counters the model reads and once
// with the model's read set hidden, so that it computes all of them. The
// JSONL trace and the Trial must be byte-identical, over two experiments,
// a telemetry fault config (under which the mask is off) and a depth-2
// AdaBoost model.
func TestCounterMaskChangesNoTrial(t *testing.T) {
	pred := predictor(t)
	depth2 := mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 40, Depth: 2, Seed: 1})
	if err := depth2.Fit(sharedJobScope.X(), sharedJobScope.ThreeClassLabels()); err != nil {
		t.Fatal(err)
	}
	pred2 := *pred
	pred2.Model = depth2
	adaa, _ := workload.SpecByName("ADAA")
	ws, _ := workload.SpecByName("WS")
	cases := []struct {
		name string
		spec workload.Spec
		pred *core.Predictor
		cfg  Config
	}{
		{"ADAA", adaa, pred, Config{}},
		{"WS", ws, pred, Config{}},
		{"telemetry-faults", adaa, pred, Config{Faults: faults.Config{TelemetryLoss: 0.2, FreezeProb: 0.1}}},
		{"depth-2", adaa, &pred2, Config{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			read := make([]bool, dataset.NumFeatures)
			mlkit.MarkRead(tc.pred.Model, read)
			n := 0
			for _, r := range dataset.CounterMask(read) {
				if r {
					n++
				}
			}
			if n == 0 || n == telemetry.NumCounters {
				t.Fatalf("the model reads %d counters; the test needs a proper subset", n)
			}
			hidden := *tc.pred
			hidden.Model = hiddenReads{tc.pred.Model}
			cfg := tc.cfg
			cfg.Trace = true
			masked, err := RunTrial(tc.spec, RUSH, tc.pred, 11, cfg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := RunTrial(tc.spec, RUSH, &hidden, 11, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if masked.GateVetoes == 0 {
				t.Fatalf("the gate vetoed nothing in %d evaluations; the comparison would prove little", masked.GateEvaluations)
			}
			if !bytes.Equal(masked.Trace, full.Trace) {
				t.Fatalf("traces differ: %d bytes masked, %d with every counter", len(masked.Trace), len(full.Trace))
			}
			a, _ := json.Marshal(masked)
			b, _ := json.Marshal(full)
			if !bytes.Equal(a, b) {
				t.Fatalf("trials differ:\nmasked: %s\nfull:   %s", a, b)
			}
		})
	}
}
