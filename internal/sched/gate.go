package sched

import (
	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/dataset"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// Features assembles the live Table I feature vector of a tentative
// allocation from one machine: the five-minute counter aggregation over
// the allocation's nodes plus freshly run MPI probes. It owns the
// reusable buffers that keep a steady-state gate decision free of heap
// allocations.
// The RUSH gate embeds one; the served gate holds one too, since counters
// and probes live with the simulated machine on either deployment.
type Features struct {
	m        *machine.Machine
	aggBuf   telemetry.Aggregates
	probeBuf simnet.ProbeResult
	featsBuf []float64
}

// NewFeatures returns the feature assembly of machine m.
func NewFeatures(m *machine.Machine) Features { return Features{m: m} }

// LiveFeatures assembles the 282-feature vector the model expects from
// the current machine state.
//
// The returned slice is a per-value buffer reused by the next call;
// callers that retain features across decisions must copy them.
func (f *Features) LiveFeatures(alloc cluster.Allocation, class apps.Class) []float64 {
	f.m.Sampler.AggregateWindowInto(f.m.Net.History(), alloc.Nodes, f.m.Eng.Now(), &f.aggBuf)
	f.m.RunProbesInto(alloc, &f.probeBuf)
	if f.featsBuf == nil {
		f.featsBuf = make([]float64, 0, dataset.NumFeatures)
	}
	f.featsBuf = dataset.BuildFeaturesInto(f.aggBuf, f.probeBuf, class, f.featsBuf[:0])
	return f.featsBuf
}

// FreshnessAge measures how old the newest telemetry of the allocation's
// nodes is: a sweep over those nodes, which is why the gate takes it
// only once the pipeline's earlier layers came back clear.
func (f *Features) FreshnessAge(alloc cluster.Allocation) float64 {
	return f.m.Sampler.FreshnessAge(alloc.Nodes, f.m.Eng.Now())
}

// RUSH is the paper's model-based gate (Algorithm 2): before a job
// launches, build the live Table I feature vector from the current system
// counters on the job's tentative nodes plus fresh MPI probe timings, run
// the trained classifier, and veto the start when it predicts the
// variation class, unless the job has exhausted its skip threshold. It is
// three embedded parts and a model: Features builds the vector, Pipeline
// is the decision with its fail-open layers, Ledger keeps the books.
type RUSH struct {
	Features
	Pipeline
	Ledger

	model mlkit.Classifier
	// width is the model's feature width, read once by NewRUSH.
	width int
	// reads marks the features the model reads (mlkit.MarkRead), from
	// which NewRUSH derives the sampler's counter mask. It is a field so
	// that the gate's one allocation holds it.
	reads [dataset.NumFeatures]bool

	// ModelDown, when set, reports whether the predictor service is
	// currently unreachable (fault injection hooks in here). It must be
	// pure: the gate reads it on every decision. A down model is a
	// breaker failure and the decision fails open.
	ModelDown func() bool
}

// Observe implements ObservableGate: the ledger's gate events and
// counters, plus the breaker's transition events.
func (g *RUSH) Observe(o *obs.Observer) {
	g.Ledger.Observe(o)
	if g.Breaker != nil {
		g.Breaker.Observe(o)
	}
}

// NewRUSH returns the RUSH gate over machine m with the given trained
// model, with the deployed fail-open thresholds (telemetry at most 90 s
// old, 1.5 sample periods; at most half the features missing) and a
// default Breaker. The model's feature width is read here, once, so a
// decision asserts nothing about the model. So are the features it
// reads: m's sampler computes only their counters from here on (see
// telemetry.Sampler), which changes no decision.
func NewRUSH(m *machine.Machine, model mlkit.Classifier) *RUSH {
	g := &RUSH{
		Features: NewFeatures(m),
		Pipeline: Pipeline{MaxStaleness: 90, MaxMissing: 0.5, Breaker: &Breaker{}},
		model:    model,
	}
	if w, ok := model.(interface{ NumFeatures() int }); ok {
		g.width = w.NumFeatures()
	}
	if g.width <= dataset.NumFeatures {
		mlkit.MarkRead(model, g.reads[:])
		m.Sampler.SetCounterMask(dataset.CounterMask(g.reads[:]))
	}
	return g
}

// Name implements Gate.
func (g *RUSH) Name() string { return "RUSH" }

// Allow implements Gate per Algorithm 2 by walking the Pipeline: the
// skip-threshold check short-circuits the model; otherwise variation
// predictions push the job back. Every failure of the model path fails
// OPEN: the job launches exactly as under the FCFS+EASY baseline. A
// scheduler must degrade to its baseline when its advisor dies, never
// stall the queue. Admit and Fresh come back before LiveFeatures runs, so
// a down model consumes no probe randomness and a 100%-outage run is
// bit-identical to the baseline.
func (g *RUSH) Allow(j *Job, alloc cluster.Allocation) bool {
	now := g.m.Eng.Now()
	v := g.Admit(now, j.Skips, j.SkipThreshold, g.ModelDown != nil && g.ModelDown())
	if !v.Final() && g.MaxStaleness > 0 {
		v = g.Fresh(now, g.FreshnessAge(alloc))
	}
	if !v.Final() {
		feats := g.LiveFeatures(alloc, j.App.Class)
		var err error
		if v, err = g.Eval(now, v.Age, feats, g.width); err != nil {
			// LiveFeatures always builds dataset.NumFeatures entries, so
			// only a model trained on some other layout gets here.
			panic("sched: " + err.Error())
		}
		if !v.Final() {
			v = v.Decided(vetoes(g.model, feats))
		}
	}
	return g.Record(now, j, v)
}

// DegradedTime returns the simulated seconds spent with the breaker
// open, or 0 when the breaker is disabled.
func (g *RUSH) DegradedTime() float64 {
	if g.Breaker == nil {
		return 0
	}
	return g.Breaker.DegradedTime(g.m.Eng.Now())
}
