package sched

import (
	"rush/internal/apps"
	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// Snapshot is an immutable view of what the last pipeline layer, the
// model consultation, reads: the trained classifier, the veto-label rule
// and (optionally) the telemetry window aggregates of the serving scope.
// It lets that layer run outside the simulator's single-threaded event
// loop.
//
// A Snapshot is never mutated after construction: concurrent readers may
// call Decide and Features freely while a writer builds the *next*
// snapshot and publishes it with an atomic pointer swap (epoch/RCU
// style; see internal/serve for the serving-side swap discipline).
// Decide performs no heap allocations when the model implements
// mlkit.FastProbaPredictor and the caller supplies the probability
// scratch buffer, and it gives the in-process gate's answer by
// construction: both run the same decision core (decideWith).
type Snapshot struct {
	// Model is the trained classifier consulted by Decide. Trained
	// models are never mutated by inference (see
	// mlkit.FastProbaPredictor), so sharing one across snapshots and
	// concurrent readers is safe.
	Model mlkit.Classifier
	// VariationLabels is the set of predicted labels that veto a start
	// (the gate's delay rule). The map is read-only after construction.
	VariationLabels map[int]bool
	// ProbThreshold, when positive, selects the probability rule over
	// the hard label rule, exactly as RUSH.ProbThreshold does.
	ProbThreshold float64

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

// Classes returns the model's class count, or 0 when the model cannot
// report probabilities. Callers size Decide's scratch buffer with it.
func (s *Snapshot) Classes() int {
	if pp, ok := s.Model.(mlkit.ProbaPredictor); ok {
		return len(pp.Classes())
	}
	return 0
}

// Decide runs the gate's veto rule on feats and returns the verdict
// together with the predicted class. probs is an optional scratch buffer
// for the class distribution: with len(probs) >= Classes() the fast path
// allocates nothing; a short or nil buffer is replaced by a fresh one.
// Decide only reads snapshot state, so any number of goroutines may call
// it concurrently. The verdict is bit-identical to RUSH.Allow's model
// consultation for the same features (both delegate to decideWith).
func (s *Snapshot) Decide(feats, probs []float64) (veto bool, class int) {
	if fp, ok := s.Model.(mlkit.FastProbaPredictor); ok {
		if n := len(fp.Classes()); len(probs) < n {
			probs = make([]float64, n)
		}
	}
	return decideWith(s.Model, s.VariationLabels, s.ProbThreshold, true, feats, probs)
}

// Features assembles the model's feature vector from the snapshot's
// frozen window aggregates, the given probe timings, and the workload
// class, appending into buf (pass a reused buffer sliced to [:0]). A
// zero-valued ProbeResult yields NaN probe features, which the missing-
// feature guard accounts for; counters-only consumers rely on that.
func (s *Snapshot) Features(probes simnet.ProbeResult, class apps.Class, buf []float64) []float64 {
	return dataset.BuildFeaturesInto(s.Agg, probes, class, buf)
}

// decideWith is the pure decision core shared by the in-process gate
// (RUSH.decide) and read-only snapshots (Snapshot.Decide): apply either
// the hard label rule (Algorithm 2) or, when probThreshold is positive,
// the probability rule. probs must have len >= len(Classes()) when fast
// is true and the model supports allocation-free inference; the
// reference path ignores it. Keeping one implementation is what pins
// served decisions byte-identical to in-process ones.
func decideWith(model mlkit.Classifier, labels map[int]bool, probThreshold float64, fast bool, feats, probs []float64) (veto bool, class int) {
	if fp, ok := model.(mlkit.FastProbaPredictor); ok && fast {
		classes := fp.Classes()
		p := probs[:len(classes)]
		class = fp.PredictProbaInto(feats, p)
		if probThreshold > 0 {
			var mass float64
			for i, c := range classes {
				if labels[c] {
					mass += p[i]
				}
			}
			return mass > probThreshold, class
		}
		return labels[class], class
	}
	class = model.Predict(feats)
	if probThreshold > 0 {
		if pp, ok := model.(mlkit.ProbaPredictor); ok {
			p := pp.PredictProba(feats)
			var mass float64
			for i, c := range pp.Classes() {
				if labels[c] {
					mass += p[i]
				}
			}
			return mass > probThreshold, class
		}
		// The configured model cannot report probabilities; fall back to
		// the label rule rather than silently never delaying.
	}
	return labels[class], class
}
