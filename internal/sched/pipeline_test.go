package sched

import (
	"math"
	"testing"

	"rush/internal/dataset"
	"rush/internal/obs"
)

// widthModel is a six-feature classifier that answers a fixed label and
// counts how often it was asked.
type widthModel struct {
	out   int
	asked int
}

func (m *widthModel) Fit([][]float64, []int) error { return nil }
func (m *widthModel) Name() string                 { return "width" }
func (m *widthModel) NumFeatures() int             { return 6 }
func (m *widthModel) Predict([]float64) int        { m.asked++; return m.out }

// breakerIn builds a breaker in the named state as seen at pipelineNow.
const pipelineNow = 400.0

func breakerIn(t *testing.T, state BreakerState) *Breaker {
	t.Helper()
	b := &Breaker{}
	openedAt := map[BreakerState]float64{BreakerOpen: pipelineNow - 10, BreakerHalfOpen: pipelineNow - breakerOpenDuration}
	if at, ok := openedAt[state]; ok {
		for i := 0; i < breakerFailureThreshold; i++ {
			b.Failure(at)
		}
	}
	if got := b.State(pipelineNow); got != state {
		t.Fatalf("breaker fixture in state %v, want %v", got, state)
	}
	return b
}

// pipelineRow is one decision: what the host knows going in, and what
// must come out.
type pipelineRow struct {
	name      string
	skips     int
	threshold int
	breaker   BreakerState
	outage    bool
	age       float64 // what a freshness measurement would return
	missing   int     // NaN entries in the vector
	width     int     // vector length; the model reads 6
	predict   int     // the model's label
	stale     float64 // MaxStaleness
	sparse    float64 // MaxMissing

	decision string
	reason   string
	wantErr  bool
	class    int
	wantAge  float64
	wantMiss float64
	measured bool         // the host was asked for a telemetry age
	built    bool         // the host was asked for a feature vector
	asked    bool         // the model was consulted
	failures int          // consecutive failures the breaker holds afterwards
	after    BreakerState // breaker state afterwards
}

// pipelineRun is everything observable about one walk.
type pipelineRun struct {
	v               Verdict
	err             bool
	measured, built bool
	asked           int
	failures, trips int
	state           BreakerState
}

// walkPipeline runs decision r on a pipeline of r's thresholds whose
// breaker is in r's state at pipelineNow.
func walkPipeline(t *testing.T, r pipelineRow, twoPhase bool) pipelineRun {
	t.Helper()
	p := &Pipeline{MaxStaleness: r.stale, MaxMissing: r.sparse, Breaker: breakerIn(t, r.breaker)}
	return decide(p, pipelineNow, r, twoPhase)
}

// decide runs decision r on p at now, driving the segments the way a host
// does; p's thresholds stand, r's are not read. Single-shot runs all of
// them in one go; twoPhase stops after the pre-feature half, as the
// wire's check does, and resumes with the age it reported, as the wire's
// eval does.
func decide(p *Pipeline, now float64, r pipelineRow, twoPhase bool) pipelineRun {
	model := &widthModel{out: r.predict}
	snap := &Snapshot{Model: model}
	var run pipelineRun

	v := p.Admit(now, r.skips, r.threshold, r.outage)
	if !v.Final() && p.MaxStaleness > 0 {
		run.measured = true
		v = p.Fresh(now, r.age)
	}
	if twoPhase && !v.Final() {
		// The phase boundary: only the age crosses it.
		v = NewVerdict("", "")
		if run.measured {
			v.Age = r.age
		}
	}
	if !v.Final() {
		run.built = true
		feats := make([]float64, r.width)
		for i := 0; i < r.missing; i++ {
			feats[i] = math.NaN()
		}
		var err error
		if v, err = p.Eval(now, v.Age, feats, model.NumFeatures()); err != nil {
			run.err = true
		} else if !v.Final() {
			v = v.Decided(snap.Decide(feats))
		}
	}
	run.v, run.asked = v, model.asked
	run.failures, run.trips, run.state = p.Breaker.failures, p.Breaker.Trips, p.Breaker.state
	return run
}

// layerOrderRows are TestPipelineLayerOrder's decisions, layer by layer.
func layerOrderRows() []pipelineRow {
	const variation, none = dataset.LabelVariation, dataset.LabelNone
	row := func(r pipelineRow) pipelineRow { // the healthy defaults every row starts from
		if r.width == 0 {
			r.width = 6
		}
		if r.stale == 0 {
			r.stale = 90
		}
		if r.sparse == 0 {
			r.sparse = 0.5
		}
		return r
	}
	return []pipelineRow{
		row(pipelineRow{name: "healthy start", age: 30, predict: none,
			decision: obs.DecisionStart, class: none, wantAge: 30, wantMiss: 0, measured: true, built: true, asked: true}),
		row(pipelineRow{name: "healthy veto", age: 30, predict: variation,
			decision: obs.DecisionVeto, class: variation, wantAge: 30, wantMiss: 0, measured: true, built: true, asked: true}),

		// Layer 1: the skip threshold, resolved from the raw value.
		row(pipelineRow{name: "default threshold reached", skips: DefaultSkipThreshold, predict: variation,
			decision: obs.DecisionOverride, class: -1, wantAge: -1, wantMiss: -1}),
		row(pipelineRow{name: "default threshold not reached", skips: DefaultSkipThreshold - 1, age: 30, predict: variation,
			decision: obs.DecisionVeto, class: variation, wantAge: 30, wantMiss: 0, measured: true, built: true, asked: true}),
		row(pipelineRow{name: "explicit threshold reached", skips: 4, threshold: 4,
			decision: obs.DecisionOverride, class: -1, wantAge: -1, wantMiss: -1}),
		row(pipelineRow{name: "negative threshold never delays", threshold: -1, predict: variation,
			decision: obs.DecisionOverride, class: -1, wantAge: -1, wantMiss: -1}),
		row(pipelineRow{name: "override beats an open breaker", skips: 10, breaker: BreakerOpen, outage: true, age: 1e9,
			decision: obs.DecisionOverride, class: -1, wantAge: -1, wantMiss: -1, after: BreakerOpen}),

		// Layer 2: the breaker. Open degrades the decision but is no new
		// failure; half-open lets one decision probe the model path.
		row(pipelineRow{name: "open breaker", breaker: BreakerOpen, age: 30,
			decision: obs.DecisionFailOpen, reason: obs.ReasonBreakerOpen, class: -1, wantAge: -1, wantMiss: -1, after: BreakerOpen}),
		row(pipelineRow{name: "open breaker hides an outage", breaker: BreakerOpen, outage: true,
			decision: obs.DecisionFailOpen, reason: obs.ReasonBreakerOpen, class: -1, wantAge: -1, wantMiss: -1, after: BreakerOpen}),
		row(pipelineRow{name: "half-open probe succeeds", breaker: BreakerHalfOpen, age: 30, predict: none,
			decision: obs.DecisionStart, class: none, wantAge: 30, wantMiss: 0, measured: true, built: true, asked: true, after: BreakerClosed}),
		row(pipelineRow{name: "half-open probe fails", breaker: BreakerHalfOpen, outage: true,
			decision: obs.DecisionFailOpen, reason: obs.ReasonModelDown, class: -1, wantAge: -1, wantMiss: -1, after: BreakerOpen}),

		// Layer 3: the outage, decided before any telemetry is read.
		row(pipelineRow{name: "outage", outage: true, age: 30,
			decision: obs.DecisionFailOpen, reason: obs.ReasonModelDown, class: -1, wantAge: -1, wantMiss: -1, failures: 1}),
		row(pipelineRow{name: "outage beats stale telemetry", outage: true, age: 1e9,
			decision: obs.DecisionFailOpen, reason: obs.ReasonModelDown, class: -1, wantAge: -1, wantMiss: -1, failures: 1}),

		// Layer 4: staleness, decided before any feature is built.
		row(pipelineRow{name: "stale", age: 90.5, missing: 6,
			decision: obs.DecisionFailOpen, reason: obs.ReasonStaleTelemetry, class: -1, wantAge: 90.5, wantMiss: -1, measured: true, failures: 1}),
		row(pipelineRow{name: "never sampled", age: math.Inf(1),
			decision: obs.DecisionFailOpen, reason: obs.ReasonStaleTelemetry, class: -1, wantAge: math.Inf(1), wantMiss: -1, measured: true, failures: 1}),
		row(pipelineRow{name: "at the staleness bound", age: 90, predict: none,
			decision: obs.DecisionStart, class: none, wantAge: 90, wantMiss: 0, measured: true, built: true, asked: true}),
		row(pipelineRow{name: "staleness layer off", age: 1e9, stale: -1, predict: none,
			decision: obs.DecisionStart, class: none, wantAge: -1, wantMiss: 0, built: true, asked: true}),

		// Layer 5: vector width, an error and never a fail-open.
		row(pipelineRow{name: "short vector", age: 30, width: 5,
			wantErr: true, measured: true, built: true}),
		row(pipelineRow{name: "short vector of NaNs", age: 30, width: 5, missing: 5,
			wantErr: true, measured: true, built: true}),
		row(pipelineRow{name: "short vector leaves a half-open breaker alone", breaker: BreakerHalfOpen, age: 30, width: 1,
			wantErr: true, measured: true, built: true, after: BreakerHalfOpen}),
		row(pipelineRow{name: "wide vector", age: 30, width: 8, predict: variation,
			decision: obs.DecisionVeto, class: variation, wantAge: 30, wantMiss: 0, measured: true, built: true, asked: true}),

		// Layer 6: the missing fraction.
		row(pipelineRow{name: "too sparse", age: 30, missing: 4, predict: variation,
			decision: obs.DecisionFailOpen, reason: obs.ReasonMissingFeatures, class: -1, wantAge: 30, wantMiss: 4.0 / 6, measured: true, built: true, failures: 1}),
		row(pipelineRow{name: "at the sparsity bound", age: 30, missing: 3, predict: variation,
			decision: obs.DecisionVeto, class: variation, wantAge: 30, wantMiss: 0.5, measured: true, built: true, asked: true}),
		row(pipelineRow{name: "sparsity layer off", age: 30, missing: 6, sparse: -1, predict: none,
			decision: obs.DecisionStart, class: none, wantAge: 30, wantMiss: -1, measured: true, built: true, asked: true}),
	}
}

// TestPipelineLayerOrder pins the order of Algorithm 2's layers and what
// each charges to the breaker, over the values a host feeds the pipeline,
// and that cutting a decision at the feature boundary (check, then eval)
// changes nothing about it.
func TestPipelineLayerOrder(t *testing.T) {
	for _, r := range layerOrderRows() {
		t.Run(r.name, func(t *testing.T) {
			got := walkPipeline(t, r, false)
			if got.err != r.wantErr {
				t.Fatalf("error = %v, want %v (verdict %+v)", got.err, r.wantErr, got.v)
			}
			if !r.wantErr {
				want := Verdict{Decision: r.decision, Reason: r.reason, Class: r.class, Age: r.wantAge, Missing: r.wantMiss}
				if got.v != want {
					t.Fatalf("verdict %+v, want %+v", got.v, want)
				}
			}
			if got.measured != r.measured || got.built != r.built || (got.asked > 0) != r.asked {
				t.Fatalf("host asked for age/features/model = %v/%v/%v, want %v/%v/%v",
					got.measured, got.built, got.asked > 0, r.measured, r.built, r.asked)
			}
			if got.asked > 1 {
				t.Fatalf("model consulted %d times in one decision", got.asked)
			}
			if got.failures != r.failures || got.state != r.after {
				t.Fatalf("breaker holds %d failures in state %v, want %d in %v", got.failures, got.state, r.failures, r.after)
			}
			if split := walkPipeline(t, r, true); split != got {
				t.Fatalf("check then eval diverges from the single shot:\n split  %+v\n single %+v", split, got)
			}
		})
	}
}

// pipelineOp decodes one fuzzed decision from eight bytes: a clock
// advance of 2·b[0] s, the job's skips, its raw skip threshold (signed),
// the outage flag, the telemetry age (b[4]/2 s, 255 for never sampled),
// the NaN entries, the vector width and the model's label.
func pipelineOp(b []byte) (advance float64, r pipelineRow) {
	age := float64(b[4]) / 2
	if b[4] == 255 {
		age = math.Inf(1)
	}
	width := int(b[6] % 16)
	return 2 * float64(b[0]), pipelineRow{skips: int(b[1]), threshold: int(int8(b[2])), outage: b[3]&1 == 1,
		age: age, missing: int(b[5]) % (width + 1), width: width, predict: int(b[7] % 3)}
}

// pipelineSeed encodes row r as FuzzPipelineOps input: r's thresholds,
// then, when r starts from an open or half-open breaker, three outages
// that trip it, and r itself as long after the trip as breakerIn puts it.
func pipelineSeed(r pipelineRow) []byte {
	seed := []byte{byte(max(r.stale, 0)), byte(max(r.sparse, 0) * 256)}
	advance := byte(0)
	if r.breaker != BreakerClosed {
		for range 3 {
			seed = append(seed, 0, 0, 0, 1, 0, 0, 0, 0)
		}
		advance = 5 // 10 s: still open
		if r.breaker == BreakerHalfOpen {
			advance = 150 // the 300 s cool-down
		}
	}
	age := byte(255)
	if r.age < 127.5 {
		age = byte(2 * r.age)
	}
	outage := byte(0)
	if r.outage {
		outage = 1
	}
	return append(seed, advance, byte(r.skips), byte(int8(r.threshold)), outage, age, byte(r.missing), byte(r.width), byte(r.predict))
}

// FuzzPipelineOps runs a sequence of decisions decoded from bytes (two
// bytes of thresholds, then eight per decision, see pipelineOp) on twin
// pipelines: one takes each decision in a single shot, the other cut at
// the feature boundary, as the wire's check then eval. After every
// decision the two must hold the same verdict, have asked the host and
// the model alike, and hold equal breakers. It is seeded with
// TestPipelineLayerOrder's rows, one by one and all in a row.
func FuzzPipelineOps(f *testing.F) {
	all := []byte{90, 128}
	for _, r := range layerOrderRows() {
		seed := pipelineSeed(r)
		f.Add(seed)
		all = append(all, seed[2:]...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		if len(ops) > 1<<9 {
			ops = ops[:1<<9] // 63 decisions, room for the all-rows seed
		}
		stale, sparse := float64(ops[0]), float64(ops[1])/256
		single := &Pipeline{MaxStaleness: stale, MaxMissing: sparse, Breaker: &Breaker{}}
		cut := &Pipeline{MaxStaleness: stale, MaxMissing: sparse, Breaker: &Breaker{}}
		now := 0.0
		for step, rest := 0, ops[2:]; len(rest) >= 8; step, rest = step+1, rest[8:] {
			advance, r := pipelineOp(rest)
			now += advance
			want, got := decide(single, now, r, false), decide(cut, now, r, true)
			if got != want {
				t.Fatalf("step %d (%+v): check then eval diverges from the single shot:\n cut    %+v\n single %+v", step, r, got, want)
			}
			if *cut.Breaker != *single.Breaker {
				t.Fatalf("step %d (%+v): breakers diverge:\n cut    %+v\n single %+v", step, r, *cut.Breaker, *single.Breaker)
			}
		}
	})
}
