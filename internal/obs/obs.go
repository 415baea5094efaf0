// Package obs is the simulator's observability layer: a structured
// event tracer and a metrics registry that together answer the question
// end-of-trial aggregates cannot — *why* a given job was delayed, what
// the RUSH gate saw when it decided, and when the predictor circuit
// breaker opened.
//
// # Design constraints
//
//   - Zero overhead when disabled. Every instrumented component holds a
//     possibly-nil *Observer (and possibly-nil *Counter / *Histogram
//     handles resolved from it); all methods are nil-receiver safe, so
//     the disabled hot path is a nil check and nothing else — no
//     allocations, no map lookups, no branches on configuration structs.
//     The guarantee is pinned by TestPassZeroAllocs in
//     internal/sched.
//
//   - Deterministic output. Events are keyed by simulated time — no wall
//     clocks, no goroutine identities — and encoded with a fixed field
//     order and the same float formatting everywhere, so a trace is
//     byte-identical across runs and across `-workers` values.
//
//   - Observation never perturbs the observed. Emitting an event draws
//     no randomness and mutates no scheduler state; enabling tracing
//     must not change a single scheduling decision (pinned by
//     TestTracingDoesNotPerturbScheduling in internal/experiments).
package obs

import (
	"io"
	"strconv"
)

// Kind classifies a trace event.
type Kind string

// The event vocabulary. Job lifecycle events carry job/app/nodes; gate
// events carry the decision provenance (predicted class, skip count,
// telemetry age, fail-open reason); breaker events carry the from/to
// states; fault events carry the node.
const (
	// KindTrial is the per-trial header event (experiment, policy, seed).
	KindTrial Kind = "trial"
	// KindSubmit: a job entered the queue.
	KindSubmit Kind = "submit"
	// KindStart: a job launched from the head of the main queue.
	KindStart Kind = "start"
	// KindBackfill: a job launched through the backfilling path.
	KindBackfill Kind = "backfill"
	// KindFinish: a job completed its work.
	KindFinish Kind = "finish"
	// KindRequeue: a job killed by a node failure re-entered the queue.
	KindRequeue Kind = "requeue"
	// KindJobFailed: a killed job exhausted its retry budget.
	KindJobFailed Kind = "job-failed"
	// KindGate: one gate decision (start, veto, fail-open, or override).
	KindGate Kind = "gate"
	// KindBreaker: a circuit-breaker state transition.
	KindBreaker Kind = "breaker"
	// KindNodeDown / KindNodeUp: injected node failure and repair.
	KindNodeDown Kind = "node-down"
	KindNodeUp   Kind = "node-up"
)

// Gate decision outcomes (Event.Decision).
const (
	// DecisionStart: the model was consulted and the job may launch.
	DecisionStart = "start"
	// DecisionVeto: the model predicted variation; the job is pushed back.
	DecisionVeto = "veto"
	// DecisionFailOpen: the model path failed; the job launches as under
	// the baseline. Event.Reason says why.
	DecisionFailOpen = "fail-open"
	// DecisionOverride: the job exhausted its skip threshold and is
	// forced through without consulting the model.
	DecisionOverride = "override"
)

// Fail-open reasons (Event.Reason when Decision == DecisionFailOpen).
const (
	// ReasonBreakerOpen: the circuit breaker is open; the model was not
	// consulted at all.
	ReasonBreakerOpen = "breaker-open"
	// ReasonModelDown: the predictor service is unreachable.
	ReasonModelDown = "model-down"
	// ReasonStaleTelemetry: the counter store is older than MaxStaleness
	// (Event.Age carries the observed age).
	ReasonStaleTelemetry = "stale-telemetry"
	// ReasonMissingFeatures: too many feature-vector entries are missing
	// (Event.Missing carries the observed fraction).
	ReasonMissingFeatures = "missing-features"
)

// Event is one structured trace record. It is a flat value type so that
// constructing one on a disabled path costs nothing; which fields are
// meaningful depends on Kind (the tracer encodes only those).
type Event struct {
	// Time is the simulated time in seconds.
	Time float64
	// Kind selects the event type and hence the encoded field set.
	Kind Kind

	// Trial header fields.
	Experiment string
	Policy     string
	Seed       int64

	// Job identity (lifecycle and gate events).
	Job   int
	App   string
	Nodes int

	// Lifecycle payloads.
	Wait    float64 // start/backfill: queued seconds accumulated across stints
	Runtime float64 // finish: realized run time of the final stint
	Delay   float64 // requeue: backoff before re-entering the queue
	Retries int     // requeue/job-failed: kills survived so far

	// Gate decision provenance.
	Decision string  // DecisionStart, DecisionVeto, DecisionFailOpen, DecisionOverride
	Class    int     // predicted label; -1 when the model was not consulted
	Skips    int     // the job's skip count at decision time
	Reason   string  // fail-open reason (Reason* constants)
	Age      float64 // telemetry freshness age in seconds; -1 when not measured
	Missing  float64 // missing-feature fraction; -1 when not measured

	// Breaker transition.
	From, To string

	// Fault injection.
	Node  int
	Kills int
}

// Tracer encodes events as deterministic JSONL: one object per line,
// fixed key order, '%g'-style float formatting. Events are encoded into
// an append buffer that reaches the writer in ~64 KiB batches, so a
// million-event replay costs dozens of writes instead of millions.
// Write errors are sticky — the first one stops all further output and
// surfaces via Err and Flush.
type Tracer struct {
	w   io.Writer
	buf []byte
	err error
}

// tracerBatchBytes is the tracer's flush threshold.
const tracerBatchBytes = 64 * 1024

// NewBatchedTracer returns a tracer that accumulates encoded events and
// writes them to w in ~64 KiB batches. Callers must Flush when the run
// ends (and check its error) or the tail of the trace is lost.
func NewBatchedTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, buf: make([]byte, 0, tracerBatchBytes+512)}
}

// Err returns the first write error, or nil.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// Flush writes any batched events through to the writer and returns the
// tracer's sticky error. Safe on a nil tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.flush()
	return t.err
}

func (t *Tracer) flush() {
	if t.err != nil || len(t.buf) == 0 {
		return
	}
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}

// Emit encodes and writes one event. Nil tracers drop the event.
func (t *Tracer) Emit(ev *Event) {
	if t == nil || t.err != nil {
		return
	}
	b := t.buf
	b = append(b, `{"t":`...)
	b = appendFloat(b, ev.Time)
	b = append(b, `,"kind":`...)
	b = appendString(b, string(ev.Kind))
	switch ev.Kind {
	case KindTrial:
		b = appendKV(b, "exp", ev.Experiment)
		b = appendKV(b, "policy", ev.Policy)
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, ev.Seed, 10)
	case KindSubmit:
		b = appendJob(b, ev)
	case KindStart, KindBackfill:
		b = appendJob(b, ev)
		b = appendKF(b, "wait", ev.Wait)
		b = appendKI(b, "skips", ev.Skips)
	case KindFinish:
		b = appendJob(b, ev)
		b = appendKF(b, "runtime", ev.Runtime)
	case KindRequeue:
		b = appendKI(b, "job", ev.Job)
		b = appendKI(b, "retries", ev.Retries)
		b = appendKF(b, "delay", ev.Delay)
	case KindJobFailed:
		b = appendKI(b, "job", ev.Job)
		b = appendKI(b, "retries", ev.Retries)
	case KindGate:
		b = appendKI(b, "job", ev.Job)
		b = appendKV(b, "app", ev.App)
		b = appendKV(b, "decision", ev.Decision)
		b = appendKI(b, "class", ev.Class)
		b = appendKI(b, "skips", ev.Skips)
		if ev.Reason != "" {
			b = appendKV(b, "reason", ev.Reason)
		}
		if ev.Age >= 0 {
			b = appendKF(b, "age", ev.Age)
		}
		if ev.Missing >= 0 {
			b = appendKF(b, "missing", ev.Missing)
		}
	case KindBreaker:
		b = appendKV(b, "from", ev.From)
		b = appendKV(b, "to", ev.To)
	case KindNodeDown:
		b = appendKI(b, "node", ev.Node)
		b = appendKI(b, "kills", ev.Kills)
	case KindNodeUp:
		b = appendKI(b, "node", ev.Node)
	}
	b = append(b, '}', '\n')
	t.buf = b
	if len(t.buf) >= tracerBatchBytes {
		t.flush()
	}
}

func appendJob(b []byte, ev *Event) []byte {
	b = appendKI(b, "job", ev.Job)
	b = appendKV(b, "app", ev.App)
	b = appendKI(b, "nodes", ev.Nodes)
	return b
}

func appendKV(b []byte, key, val string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendString(b, val)
}

func appendKI(b []byte, key string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendKF(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendFloat(b, v)
}

// appendFloat mirrors the repository's CSV float formatting ('g', -1) so
// every serialized artifact renders a given value identically.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendString writes a JSON string. Values here are controlled
// identifiers (app names, reasons, policies), but escape defensively so
// arbitrary experiment names cannot corrupt the stream.
func appendString(b []byte, s string) []byte {
	return strconv.AppendQuote(b, s)
}

// Observer bundles the two observation channels — an event tracer and a
// metrics registry — behind one nil-able handle. A nil *Observer is the
// disabled state: Emit is a no-op and Metrics returns a nil registry
// whose handles are themselves no-ops.
type Observer struct {
	tracer  *Tracer
	metrics *Registry
}

// New returns an observer over the given channels, either of which may
// be nil. If both are nil it returns nil (fully disabled), so callers
// can pass the result straight into instrumented components.
func New(tracer *Tracer, metrics *Registry) *Observer {
	if tracer == nil && metrics == nil {
		return nil
	}
	return &Observer{tracer: tracer, metrics: metrics}
}

// Tracer returns the event tracer, or nil.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the metrics registry, or nil.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Tracing reports whether events will actually be recorded. Hot paths
// that must assemble event payloads (rather than pass constants) should
// guard on this to keep the disabled path free.
func (o *Observer) Tracing() bool { return o != nil && o.tracer != nil }

// Emit records ev on the tracer, if any.
func (o *Observer) Emit(ev Event) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.Emit(&ev)
}

// Err returns the first tracer write error, or nil.
func (o *Observer) Err() error {
	if o == nil {
		return nil
	}
	return o.tracer.Err()
}
