// Package serve is the gate-prediction daemon: a concurrent network
// service that loads a trained variability predictor, ingests telemetry
// windows, and answers the scheduler's gate decisions over a small
// versioned wire protocol. It is the out-of-process form of the
// in-process sched.RUSH gate: both walk the one sched.Pipeline, so the
// decision and its fail-open layers are the same code, and the
// differential test suite checks whole served trials byte-identical to
// in-process ones, fail-open paths included.
//
// # Architecture
//
// Decisions never take a lock. The server keeps an immutable
// sched.Snapshot (model + telemetry aggregates + reference statistics)
// behind an atomic pointer; every ingest and every model swap builds
// the next snapshot and publishes it with an incremented Epoch
// (RCU-style: readers in flight keep the snapshot they loaded). The
// per-scope decision cache stores the epoch alongside each entry, so a
// single integer compare both validates a hit and invalidates the
// whole cache the moment new telemetry or a new model lands.
//
// Availability is layered in front of inference by sched.Pipeline, in
// its order: skip-threshold override, circuit breaker, predictor
// outage, telemetry staleness, vector width, missing-feature fraction.
// Server.decide feeds it the request's fields under the breaker mutex
// (the breaker is the only state a decision mutates) and adds no layer
// of its own. Any failure in those layers fails OPEN — the job is
// admitted with a typed reason (obs.ReasonModelDown,
// obs.ReasonStaleTelemetry, ...) rather than blocked on a dead model.
// Repeated failures trip the breaker (sched.NewBreaker defaults:
// 3 failures, 300 s open window), after which decisions fail open
// without consulting anything until a half-open probe succeeds.
//
// Inference requests are funneled through a single batcher goroutine
// that drains its bounded queue greedily (or over a configured
// BatchWindow, up to 64 at a time). Each item carries the snapshot its
// request loaded and Snapshot.Decide is called once per item; what the
// items of a batch share is the goroutine and its probability scratch
// buffer. When the queue is full the server answers StatusBusy instead
// of blocking — bounded-queue backpressure, never unbounded buffering.
//
// # Wire protocol (version 1)
//
// Transport is any stream connection (TCP or unix domain socket).
// Each direction carries length-prefixed JSON frames:
//
//	+----------------+----------------------+
//	| 4-byte length  | JSON body            |
//	| big-endian     | (length bytes)       |
//	+----------------+----------------------+
//
// The body is a Request (client→server) or Response (server→client).
// One response per request, in order, on the same connection; pipelining
// is allowed. A length prefix above MaxFrame (1 MiB) is unrecoverable —
// the server replies with a StatusError frame and closes the connection,
// because the oversized body was never consumed and the stream cannot be
// resynchronized. A body that fails to parse as JSON is recoverable: the
// server replies with a StatusError frame describing the parse error and
// keeps the connection open.
//
// Every request carries three envelope fields: "v" (must equal
// ProtoVersion; anything else gets a StatusError response naming the
// supported version, and the connection survives), "id" (echoed verbatim
// into the response for matching), and "op". The operations:
//
//	ping    liveness; response carries the current snapshot epoch
//	decide  single-shot gate decision (both halves of the pipeline,
//	        the decision cache between them)
//	check   phase one of the two-phase decision: the pre-feature half
//	        (Pipeline.Admit, Pipeline.Fresh); answers a final decision
//	        or "evaluate"
//	eval    phase two: the post-feature half (Pipeline.Eval, then
//	        inference) on client-built features
//	ingest  publish a telemetry window (min/mean/max aggregates);
//	        epoch+1, invalidates the decision cache
//	swap    hot-swap the model from a serialized mlkit blob; epoch+1
//	outage  set/clear the injected predictor-outage flag
//	stats   counter snapshot
//
// Two requests are refused with StatusError because serving them would
// crash the daemon, and both leave it serving: a swap whose blob
// mlkit.LoadModel rejects (the old model stays; the error names the
// field), and a decide or eval whose feature vector has fewer entries
// than the model reads (a longer one is legal — a model may read a
// prefix of the ingest features).
//
// Decision responses reuse the gate's trace vocabulary: Decision is one
// of "start", "veto", "fail-open", "override" (obs.Decision*), Reason
// is the typed fail-open/override cause (obs.Reason*), Class is the
// predicted class or -1 when the model was not consulted, and Age and
// Missing are -1 when unmeasured. Cached reports a decision-cache hit;
// Epoch is the snapshot generation that answered.
//
// Two-phase decide exists for feature-assembly parity: probe timings in
// a client-built feature vector consume client-side randomness, so a
// parity-faithful client must not gather them when the in-process gate
// would not have reached feature assembly (override, breaker open,
// outage, stale telemetry). OpCheck runs exactly those pre-feature
// layers (they are the same functions the in-process gate calls before
// it builds features) and answers either a final decision or
// DecisionEvaluate; only on "evaluate" does the client build features
// and send OpEval. A counters-only client can skip all of that and use
// single-shot OpDecide, which builds features from the server's own
// snapshot and is eligible for the per-scope cache.
//
// Non-finite numbers: JSON cannot encode NaN or infinities.
// FeatureVector marshals non-finite entries as null and unmarshals null
// as NaN, preserving the missing-feature accounting for counters fully
// dropped by fault injection. Freshness ages are clamped with WireAge
// (+Inf, "no sample ever", becomes math.MaxFloat64 — still stale under
// any threshold).
//
// # Compatibility rule
//
// Within a protocol version, evolution is additive only: new optional
// request fields, new response fields, new operations. Both sides
// ignore unknown JSON fields, so a v1 client always understands a v1
// server and vice versa, regardless of patch level. Any change that
// alters the meaning of an existing field, removes a field, or changes
// framing MUST bump ProtoVersion; a server speaks exactly one version
// and rejects others with StatusError, which a client should treat as
// a permanent (not retryable) failure.
//
// # Degraded mode
//
// The daemon is an availability layer, not an availability risk. Every
// failure mode maps to an explicit, observable behavior: predictor
// outage → fail-open ReasonModelDown; stale telemetry → fail-open
// ReasonStaleTelemetry; too many missing features → fail-open
// ReasonMissingFeatures; repeated failures → breaker open, fail-open
// ReasonBreakerOpen without consulting anything; queue full →
// StatusBusy (request not processed). On the client side, serve.Gate
// degrades the same direction and says so: a transport error (sticky),
// a StatusBusy or a StatusError answer admits the job and is booked in
// the gate's sched.Ledger as a fail-open with obs.ReasonModelDown,
// counted in Degraded and gate_fail_open_model_down_total and traced
// like any other decision. A dead daemon costs scheduling quality, never
// scheduling liveness, and never passes for a clean baseline run.
package serve
