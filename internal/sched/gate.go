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

// DecisionHook observes every RUSH gate decision and may adjust its
// outcome. The model-lifecycle registry implements it to shadow-predict
// with a challenger model on every evaluated decision and, during a
// canary phase, to act on a seeded fraction of them. A nil hook costs a
// single pointer check per decision, so leaving the hook compiled in is
// free (pinned by BenchmarkPassNilLifecycle / `make bench-lifecycle`).
type DecisionHook interface {
	// Decide is called after the incumbent model evaluated feats and
	// returns the final veto decision (implementations that only observe
	// return veto unchanged). feats aliases the gate's reusable buffer
	// and class is the incumbent's predicted label; implementations must
	// copy anything they retain across decisions.
	Decide(j *Job, feats []float64, class int, veto bool) bool
	// FailOpen is called when the decision failed open — the job
	// launches without any model prediction. reason is one of the
	// obs.Reason* constants.
	FailOpen(j *Job, reason string)
	// Override is called when the job exhausted its skip threshold and
	// is forced through without consulting the model.
	Override(j *Job)
}

// Features assembles the live Table I feature vector of a tentative
// allocation from one machine: the five-minute counter aggregation over
// the decision scope plus freshly run MPI probes. It owns the reusable
// buffers that keep a steady-state gate decision free of heap allocations.
// The RUSH gate embeds one; the served gate holds one too, since counters
// and probes live with the simulated machine on either deployment.
type Features struct {
	m *machine.Machine

	// AllNodesScope aggregates counters over the whole machine instead
	// of the job's tentative nodes (the paper's data-exclusivity
	// comparison; job-node scope is the deployed default).
	AllNodesScope bool

	// reference routes LiveFeatures, and the embedding RUSH gate's model
	// call, through the allocating reference implementations: full window
	// recompute (Sampler.AggregateRangeRef) and pointer-tree PredictProba.
	// Decisions are bit-identical either way; only the differential test
	// in fastpath_test.go sets it.
	reference bool

	allNodes []cluster.NodeID
	winAgg   *telemetry.WindowAgg
	aggBuf   telemetry.Aggregates
	probeBuf simnet.ProbeResult
	featsBuf []float64
}

// NewFeatures returns the feature assembly of machine m on the job-node
// scope.
func NewFeatures(m *machine.Machine) Features { return Features{m: m} }

// LiveFeatures assembles the 282-feature vector the model expects from
// the current machine state.
//
// The returned slice is a per-value buffer reused by the next call;
// callers that retain features across decisions must copy them. The probe
// noise draw order is identical on the fast and reference paths, so the
// reference path never perturbs the rng stream.
func (f *Features) LiveFeatures(alloc cluster.Allocation, class apps.Class) []float64 {
	now := f.m.Eng.Now()
	if f.reference {
		agg := f.m.Sampler.AggregateRangeRef(f.m.Net.History(), f.scopeNodes(alloc), now-telemetry.WindowSeconds, now)
		probes := f.m.RunProbes(alloc)
		return dataset.BuildFeatures(agg, probes, class)
	}
	if f.AllNodesScope {
		// The machine-wide scope is fixed, so a sliding-window aggregator
		// amortizes each tick's node sweep across decisions.
		if f.winAgg == nil {
			f.winAgg = f.m.Sampler.NewWindowAgg(f.m.Net.History(), f.scopeNodes(alloc))
		}
		f.winAgg.AggregateInto(now, &f.aggBuf)
	} else {
		f.m.Sampler.AggregateWindowInto(f.m.Net.History(), alloc.Nodes, now, &f.aggBuf)
	}
	f.m.RunProbesInto(alloc, &f.probeBuf)
	if f.featsBuf == nil {
		f.featsBuf = make([]float64, 0, dataset.NumFeatures)
	}
	f.featsBuf = dataset.BuildFeaturesInto(f.aggBuf, f.probeBuf, class, f.featsBuf[:0])
	return f.featsBuf
}

// FreshnessAge measures how old the newest telemetry of the decision
// scope is: a sweep over the scope's nodes, which is why the gate takes it
// only once the pipeline's earlier layers came back clear.
func (f *Features) FreshnessAge(alloc cluster.Allocation) float64 {
	return f.m.Sampler.FreshnessAge(f.scopeNodes(alloc), f.m.Eng.Now())
}

// scopeNodes returns the node set the telemetry readings cover.
func (f *Features) scopeNodes(alloc cluster.Allocation) []cluster.NodeID {
	if f.AllNodesScope {
		if f.allNodes == nil {
			f.allNodes = telemetry.AllNodes(f.m.Topo)
		}
		return f.allNodes
	}
	return alloc.Nodes
}

// RUSH is the paper's model-based gate (Algorithm 2): before a job
// launches, build the live Table I feature vector from the current system
// counters on the job's tentative nodes plus fresh MPI probe timings, run
// the trained classifier, and veto the start when a variation label is
// predicted, unless the job has exhausted its skip threshold. It is three
// embedded parts and a model: Features builds the vector, Pipeline is the
// decision with its fail-open layers, Ledger keeps the books.
type RUSH struct {
	Features
	Pipeline
	Ledger

	model mlkit.Classifier

	// VariationLabels is the set of predicted labels that delay a job.
	// The default delays only dataset.LabelVariation; including
	// dataset.LabelLittle makes the gate more conservative (see the
	// ablation benchmarks).
	VariationLabels map[int]bool
	// ProbThreshold, when positive, switches the gate from the paper's
	// hard label rule to a probability rule: the job is delayed when the
	// model's total probability mass on the VariationLabels exceeds the
	// threshold. Requires a model implementing mlkit.ProbaPredictor
	// (all four candidates do). This implements the paper's future-work
	// direction of richer use of the model's output: low thresholds
	// delay more aggressively, high thresholds only on confident
	// predictions.
	ProbThreshold float64

	// ModelDown, when set, reports whether the predictor service is
	// currently unreachable (fault injection hooks in here). It must be
	// pure: the gate reads it on every decision. A down model is a
	// breaker failure and the decision fails open.
	ModelDown func() bool
	// Hook, when set, observes every decision and may adjust evaluated
	// ones (the model-lifecycle registry's shadow/canary path). Nil is
	// the zero-overhead default.
	Hook DecisionHook

	probsBuf []float64
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
// model, delaying on dataset.LabelVariation only, with the deployed
// fail-open thresholds (telemetry at most 90 s old, 1.5 sample periods;
// at most half the features missing) and a default Breaker.
func NewRUSH(m *machine.Machine, model mlkit.Classifier) *RUSH {
	return &RUSH{
		Features: NewFeatures(m),
		Pipeline: Pipeline{MaxStaleness: 90, MaxMissing: 0.5, Breaker: NewBreaker()},
		model:    model,
		VariationLabels: map[int]bool{
			dataset.LabelVariation: true,
		},
	}
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
	var feats []float64
	if !v.Final() {
		feats = g.LiveFeatures(alloc, j.App.Class)
		var err error
		if v, err = g.Eval(now, v.Age, feats, g.model); err != nil {
			// LiveFeatures always builds dataset.NumFeatures entries, so
			// only a model trained on some other layout gets here.
			panic("sched: " + err.Error())
		}
		if !v.Final() {
			v = v.Decided(g.decide(feats))
		}
	}
	return g.Record(now, j, v, feats, g.Hook)
}

// Model returns the gate's current classifier (the incumbent).
func (g *RUSH) Model() mlkit.Classifier { return g.model }

// SwapModel replaces the gate's classifier in place — the model
// lifecycle promotes a vetted challenger this way. The next decision
// uses the new model; the probability buffer resizes on demand, so a
// model with a different class count is safe.
//
// The swap is a plain pointer write: the gate lives inside one trial's
// single-threaded event loop, like the scheduler itself. A host whose
// readers run concurrently with promotions must publish the swap
// atomically, as serve.Server does with its Snapshot pointer.
func (g *RUSH) SwapModel(m mlkit.Classifier) { g.model = m }

// DegradedTime returns the simulated seconds spent with the breaker
// open, or 0 when the breaker is disabled.
func (g *RUSH) DegradedTime() float64 {
	if g.Breaker == nil {
		return 0
	}
	return g.Breaker.DegradedTime(g.m.Eng.Now())
}

// decide applies either the hard label rule (Algorithm 2) or, when
// ProbThreshold is set, the probability rule, by delegating to the
// decideWith core shared with Snapshot.Decide. It returns the veto
// decision together with the model's predicted label so trace events can
// report the class under both rules. Predict is pure and is always
// invoked — never only when tracing — so enabling a trace cannot perturb
// a single decision.
func (g *RUSH) decide(feats []float64) (veto bool, class int) {
	if fp, ok := g.model.(mlkit.FastProbaPredictor); ok && !g.reference {
		if n := len(fp.Classes()); cap(g.probsBuf) < n {
			g.probsBuf = make([]float64, n)
		}
	}
	return decideWith(g.model, g.VariationLabels, g.ProbThreshold, !g.reference, feats, g.probsBuf[:cap(g.probsBuf)])
}
