package sched

import (
	"rush/internal/apps"
	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// Snapshot is an immutable view of what the last pipeline layer, the
// model consultation, reads: the trained classifier and (optionally) the
// telemetry window aggregates of the serving scope. It lets that layer
// run outside the simulator's single-threaded event loop.
//
// A Snapshot is never mutated after construction: concurrent readers may
// call Decide and Features freely while a writer builds the *next*
// snapshot and publishes it with an atomic pointer swap (epoch/RCU
// style; see internal/serve for the serving-side swap discipline).
// Decide allocates nothing when the model's Predict does not (every
// tree-family model of up to three classes), and it gives the in-process
// gate's answer by construction: both apply the same veto rule.
type Snapshot struct {
	// Model is the trained classifier consulted by Decide. Trained
	// models are never mutated by inference (see
	// mlkit.FastProbaPredictor), so sharing one across snapshots and
	// concurrent readers is safe.
	Model mlkit.Classifier

	// Agg holds the telemetry window aggregates the snapshot was built
	// against (empty when the snapshot carries only a model). The slices
	// are owned by the snapshot and never written after construction.
	Agg telemetry.Aggregates
	// Tick identifies the telemetry tick Agg describes; consumers use it
	// for tick-based cache invalidation.
	Tick int64
	// Epoch is the snapshot generation: a publisher increments it on
	// every swap (telemetry ingest or model hot-swap), so any cached
	// decision can be validated with a single integer compare.
	Epoch uint64
}

// Decide runs the gate's veto rule on feats and returns the verdict
// together with the predicted class. Decide only reads snapshot state,
// so any number of goroutines may call it concurrently. The verdict is
// bit-identical to RUSH.Allow's model consultation for the same
// features (both apply vetoes).
func (s *Snapshot) Decide(feats []float64) (veto bool, class int) {
	return vetoes(s.Model, feats)
}

// Features assembles the model's feature vector from the snapshot's
// frozen window aggregates, the given probe timings, and the workload
// class, appending into buf (pass a reused buffer sliced to [:0]). A
// zero-valued ProbeResult yields NaN probe features, which the missing-
// feature guard accounts for; counters-only consumers rely on that.
func (s *Snapshot) Features(probes simnet.ProbeResult, class apps.Class, buf []float64) []float64 {
	return dataset.BuildFeaturesInto(s.Agg, probes, class, buf)
}

// vetoes is Algorithm 2's veto rule, shared by the in-process gate
// (RUSH.Allow) and read-only snapshots (Snapshot.Decide): delay the job
// when the model predicts dataset.LabelVariation. It returns the
// predicted class too, for the trace. Predict is pure and always runs,
// never only when tracing, so enabling a trace cannot perturb a
// decision. Keeping one rule is what pins served decisions
// byte-identical to in-process ones.
func vetoes(model mlkit.Classifier, feats []float64) (veto bool, class int) {
	class = model.Predict(feats)
	return class == dataset.LabelVariation, class
}
