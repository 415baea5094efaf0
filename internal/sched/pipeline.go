package sched

import (
	"fmt"
	"math"

	"rush/internal/mlkit"
	"rush/internal/obs"
)

// This file is Algorithm 2's modified Start, written once. A decision
// passes these layers in this order, and the first one that stops it
// decides it:
//
//	override   skips reached the job's threshold: start, model not asked
//	breaker    the circuit is open: fail open, not charged as a failure
//	outage     the predictor is unreachable: fail open
//	staleness  the telemetry is older than MaxStaleness: fail open
//	width      the vector is shorter than the model reads: the caller's error
//	missing    more than MaxMissing of the vector is NaN: fail open
//	model      breaker success, then the veto rule (Snapshot.Decide)
//
// Pipeline owns every layer but not the three expensive things between
// them, which differ by host: measuring the telemetry age, building the
// feature vector and running the model. It is therefore cut at exactly
// those points. Admit and Fresh are the pre-feature half (what the wire
// protocol calls check), split so that an override or an open breaker
// never pays for an age measurement; Eval and Verdict.Decided are the
// post-feature half (the wire's eval), split so that a host may run the
// model elsewhere, as the daemon's batcher does. Each returns a Verdict by
// value and allocates nothing. A Ledger then turns the final Verdict into
// a gate's counters, metrics, trace line and Allow result.

// Verdict is what the pipeline has concluded about one decision so far.
type Verdict struct {
	// Decision is one of obs.DecisionStart, DecisionVeto, DecisionFailOpen
	// or DecisionOverride once a layer has decided, and empty while the
	// model path is still clear (see Final).
	Decision string
	// Reason is the obs.Reason* constant of a fail-open decision.
	Reason string
	// Class is the model's predicted label, -1 when it was not consulted.
	Class int
	// Age is the measured telemetry age in seconds and Missing the NaN
	// fraction of the feature vector; -1 means not measured, which the
	// tracer omits from the encoded line.
	Age     float64
	Missing float64
}

// NewVerdict returns a verdict reached without consulting the model or
// measuring anything; with an empty decision it is the clear-path verdict
// a decision starts from.
func NewVerdict(decision, reason string) Verdict {
	return Verdict{Decision: decision, Reason: reason, Class: -1, Age: -1, Missing: -1}
}

// Final reports whether a layer has decided; until then the caller runs
// the next segment.
func (v Verdict) Final() bool { return v.Decision != "" }

// Decided completes a clear-path verdict with the model's answer.
func (v Verdict) Decided(veto bool, class int) Verdict {
	v.Decision, v.Class = obs.DecisionStart, class
	if veto {
		v.Decision = obs.DecisionVeto
	}
	return v
}

// SkipLimit resolves a raw skip threshold (Job.SkipThreshold, or the
// wire's skip_limit): zero means DefaultSkipThreshold and a negative value
// means the job may never be delayed.
func SkipLimit(threshold int) int {
	switch {
	case threshold < 0:
		return 0
	case threshold > 0:
		return threshold
	default:
		return DefaultSkipThreshold
	}
}

// Pipeline holds the thresholds and the breaker of the fail-open layers.
// It is not safe for concurrent use: the in-process gate runs inside one
// trial's event loop, and the daemon calls it under its breaker mutex.
type Pipeline struct {
	// MaxStaleness is the oldest acceptable telemetry age in seconds; a
	// staler counter store fails the decision open rather than predicting
	// from frozen data. Zero disables the layer.
	MaxStaleness float64
	// MaxMissing is the largest tolerable fraction of missing (NaN)
	// features; above it the decision fails open. Zero disables the layer.
	MaxMissing float64
	// Breaker trips after repeated model-path failures so a dead predictor
	// stops being consulted at all; nil disables it. See Breaker.
	Breaker *Breaker
}

// Admit runs the layers that read no telemetry: the skip-threshold
// override, the breaker and the predictor outage flag. down must be a
// pure reading (faults.Injector.ModelDown is hash-based), since it is
// taken before the layers that may make it irrelevant.
func (p *Pipeline) Admit(now float64, skips, threshold int, down bool) Verdict {
	switch {
	case skips >= SkipLimit(threshold):
		return NewVerdict(obs.DecisionOverride, "")
	case p.Breaker != nil && !p.Breaker.Ready(now):
		// An open breaker is not charged as another breaker failure (the
		// model was never consulted), but the decision still degraded.
		return NewVerdict(obs.DecisionFailOpen, obs.ReasonBreakerOpen)
	case down:
		return p.FailOpen(now, obs.ReasonModelDown, -1, -1)
	}
	return NewVerdict("", "")
}

// Fresh runs the staleness layer on a measured telemetry age. Callers
// whose measurement costs a sweep take it only after Admit came back
// clear and only when MaxStaleness is positive; an age of -1 (not
// measured) always passes.
func (p *Pipeline) Fresh(now, age float64) Verdict {
	if p.MaxStaleness > 0 && age > p.MaxStaleness {
		return p.FailOpen(now, obs.ReasonStaleTelemetry, age, -1)
	}
	v := NewVerdict("", "")
	v.Age = age
	return v
}

// Eval runs the layers that read the feature vector, up to and including
// the breaker success that precedes the model call. A vector narrower
// than the model reads is an error and no decision at all (the models
// index it unchecked; a wider one is legal, a model may read a prefix).
// On a clear verdict the caller consults the model and calls Decided.
func (p *Pipeline) Eval(now, age float64, feats []float64, model mlkit.Classifier) (Verdict, error) {
	if w, ok := model.(interface{ NumFeatures() int }); ok && len(feats) < w.NumFeatures() {
		return Verdict{}, fmt.Errorf("feature vector has %d entries, the model reads %d", len(feats), w.NumFeatures())
	}
	v := NewVerdict("", "")
	v.Age = age
	if p.MaxMissing > 0 {
		v.Missing = nanFraction(feats)
		if v.Missing > p.MaxMissing {
			return p.FailOpen(now, obs.ReasonMissingFeatures, age, v.Missing), nil
		}
	}
	if p.Breaker != nil {
		p.Breaker.Success(now)
	}
	return v, nil
}

// FailOpen charges one model-path failure to the breaker and returns the
// fail-open verdict. The layers above call it; a host calls it directly
// only for a failure they cannot see (the daemon before its first
// telemetry ingest has no vector to hand to Eval).
func (p *Pipeline) FailOpen(now float64, reason string, age, missing float64) Verdict {
	if p.Breaker != nil {
		p.Breaker.Failure(now)
	}
	return Verdict{Decision: obs.DecisionFailOpen, Reason: reason, Class: -1, Age: age, Missing: missing}
}

func nanFraction(feats []float64) float64 {
	if len(feats) == 0 {
		return 0
	}
	n := 0
	for _, v := range feats {
		if math.IsNaN(v) {
			n++
		}
	}
	return float64(n) / float64(len(feats))
}

// Ledger is a gate's books: the decision counts trial summaries read, the
// metric handles behind them, and the gate trace event. Every gate that
// delays jobs embeds one and passes each final Verdict through Record, so
// in-process, served and model-free gates count and trace alike.
type Ledger struct {
	// Evaluations counts decisions the model (or the canary's probe)
	// made; Vetoes counts the delays among them.
	Evaluations int
	Vetoes      int
	// ThresholdOverrides counts jobs forced through after exhausting
	// their skip threshold.
	ThresholdOverrides int
	// Degraded counts decisions that failed open (predictor down or
	// unreachable, telemetry stale or too sparse, breaker open): jobs that
	// launched exactly as the FCFS+EASY baseline would have.
	Degraded int

	obs *obs.Observer
	// Pre-resolved metric handles; all nil (no-op) without an observer.
	// The per-reason counters let faulted runs attribute degradation to
	// its cause without parsing the trace.
	evaluations, vetoes, overrides, degraded       *obs.Counter
	failBreaker, failModel, failStale, failMissing *obs.Counter
}

// Observe implements ObservableGate for the embedding gate: decisions
// emit gate trace events carrying their full provenance (predicted class,
// skip count, telemetry age, fail-open reason) and maintain the
// evaluation, veto, override and fail-open counters.
func (l *Ledger) Observe(o *obs.Observer) {
	l.obs = o
	reg := o.Metrics()
	l.evaluations = reg.Counter("gate_evaluations_total")
	l.vetoes = reg.Counter("gate_vetoes_total")
	l.overrides = reg.Counter("gate_overrides_total")
	l.degraded = reg.Counter("gate_degraded_total")
	l.failBreaker = reg.Counter("gate_fail_open_breaker_open_total")
	l.failModel = reg.Counter("gate_fail_open_model_down_total")
	l.failStale = reg.Counter("gate_fail_open_stale_telemetry_total")
	l.failMissing = reg.Counter("gate_fail_open_missing_features_total")
}

// Record books one final verdict and returns the gate's answer: false
// delays the job. hook, when non-nil, is told of overrides and fail-opens
// after they are traced, and sees an evaluated decision before it is
// booked: it may flip the veto (the lifecycle's canary phase), and the
// counts and the trace line describe what actually happened. feats is
// handed to the hook only.
func (l *Ledger) Record(now float64, j *Job, v Verdict, feats []float64, hook DecisionHook) bool {
	switch v.Decision {
	case obs.DecisionOverride:
		l.ThresholdOverrides++
		l.overrides.Inc()
		l.emit(now, j, v)
		if hook != nil {
			hook.Override(j)
		}
		return true
	case obs.DecisionFailOpen:
		l.Degraded++
		l.degraded.Inc()
		switch v.Reason {
		case obs.ReasonBreakerOpen:
			l.failBreaker.Inc()
		case obs.ReasonModelDown:
			l.failModel.Inc()
		case obs.ReasonStaleTelemetry:
			l.failStale.Inc()
		case obs.ReasonMissingFeatures:
			l.failMissing.Inc()
		}
		l.emit(now, j, v)
		if hook != nil {
			hook.FailOpen(j, v.Reason)
		}
		return true
	}
	l.Evaluations++
	l.evaluations.Inc()
	veto := v.Decision == obs.DecisionVeto
	if hook != nil {
		veto = hook.Decide(j, feats, v.Class, veto)
	}
	if veto {
		l.Vetoes++
		l.vetoes.Inc()
	}
	l.emit(now, j, v.Decided(veto, v.Class))
	return !veto
}

func (l *Ledger) emit(now float64, j *Job, v Verdict) {
	if !l.obs.Tracing() {
		return
	}
	l.obs.Emit(obs.Event{Time: now, Kind: obs.KindGate, Job: j.ID, App: j.App.Name,
		Decision: v.Decision, Class: v.Class, Skips: j.Skips, Reason: v.Reason, Age: v.Age, Missing: v.Missing})
}
