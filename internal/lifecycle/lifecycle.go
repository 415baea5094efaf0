// Package lifecycle closes the loop from live telemetry back into the
// RUSH gate: a streaming drift detector watches the gate's feature
// stream and realized outcomes against the training-time reference
// profile, and a model registry retrains challengers from a rolling
// window, runs them in shadow, canaries the winners on a seeded fraction
// of decisions, and promotes — or automatically rolls back — based on
// measured outcome quality.
//
// The state machine (see DESIGN.md):
//
//	Idle --drift / cadence--> Shadow --F1 margin--> Canary --healthy--> Promoted (back to Idle)
//	                            |                      |
//	                       never wins              regression
//	                            v                      v
//	                        Discarded              RolledBack
//
// Everything is deterministic: canary assignment is a pure hash of the
// job identity, retraining is seeded, and the detector draws no
// randomness, so a lifecycle-enabled run is reproducible across -workers
// values. With the manager disabled (nil), the gate pays one pointer
// check per decision and traces stay byte-identical to a build without
// the subsystem.
package lifecycle

import (
	"fmt"

	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/sim"
)

// variationClass is the outcome label whose rate and F1 the lifecycle
// optimizes for — the paper's "variation" class.
const variationClass = dataset.LabelVariation

// Config tunes the drift detector and the shadow/canary promotion rules.
// Zero values select the documented defaults; Enabled false disables the
// subsystem entirely (New returns nil).
type Config struct {
	// Enabled turns the lifecycle on. Off by default: the gate then
	// behaves exactly as without the subsystem.
	Enabled bool

	// WarmupTime ignores the detector signal (and self-calibration)
	// before this simulated time, so the cold-start load ramp — a real
	// but expected distribution change — cannot trip the detector or
	// poison a self-calibrated reference (default 0: no warm-up).
	WarmupTime float64
	// WindowDecisions is the rolling feature-window length (evaluated
	// decisions) the PSI detector scores over (default 128).
	WindowDecisions int
	// CheckEvery is how many evaluated decisions pass between detector
	// checks (default 16).
	CheckEvery int
	// PSIThreshold is the per-feature PSI above which a feature counts
	// as drifted (default 0.25, the conventional "significant shift").
	PSIThreshold float64
	// MinDriftFeatures is how many features must exceed PSIThreshold to
	// trip the feature-drift signal (default 8; single-feature blips on
	// 282 features are noise).
	MinDriftFeatures int
	// OutlierMargin widens the reference support band a drifted feature
	// must leave: feature f only counts toward MinDriftFeatures when,
	// besides exceeding PSIThreshold, most of its live window sits
	// outside [Lo-m, Hi+m] where m = OutlierMargin*max(|Lo|, |Hi|)
	// (default 0.25). Live decisions are autocorrelated, so without the
	// support gate a benign load meander saturates PSI.
	OutlierMargin float64
	// DriftCooldown is the minimum simulated seconds between drift
	// detections, so a sustained shift counts once per episode instead
	// of once per check (default 300).
	DriftCooldown float64
	// LabelWindow is the rolling realized-outcome window for the
	// label-rate shift signal (default 64).
	LabelWindow int
	// MinLabels is how many realized outcomes must be present before
	// the label signal can trip (default 30).
	MinLabels int
	// LabelRateDelta is the absolute shift of the realized variation
	// rate from the training rate that trips the label signal
	// (default 0.2).
	LabelRateDelta float64

	// RetrainWindow is the rolling labeled-sample buffer size
	// challengers are retrained from (default 240).
	RetrainWindow int
	// RetrainMinSamples is the minimum window fill before a retrain is
	// attempted (default 60).
	RetrainMinSamples int
	// RetrainMinVariation is the minimum number of variation-labeled
	// samples the window must hold (default 5; a fitter cannot learn a
	// class it has never seen).
	RetrainMinVariation int
	// RetrainCooldown is the minimum simulated seconds between retrain
	// attempts (default 900).
	RetrainCooldown float64
	// RetrainEvery, when positive, also retrains on a fixed cadence
	// (simulated seconds) regardless of drift — the belt-and-suspenders
	// mode. 0 retrains only on detected drift.
	RetrainEvery float64

	// ShadowMinLabeled is how many paired labeled decisions a shadow
	// challenger needs before promotion is considered (default 40).
	ShadowMinLabeled int
	// ShadowMaxLabeled bounds the shadow phase: a challenger that has
	// not won by then is discarded (default 6x ShadowMinLabeled).
	ShadowMaxLabeled int
	// PromoteMargin is how much the challenger's variation-class F1
	// must exceed the incumbent's (default 0.02).
	PromoteMargin float64

	// CanaryFraction is the seeded fraction of decisions the canary
	// challenger acts on (default 0.25).
	CanaryFraction float64
	// CanaryMinActed is how many acted canary decisions a healthy
	// challenger needs before promotion (default 20).
	CanaryMinActed int
	// RollbackMinActed is how many acted decisions must accumulate
	// before the health checks may fire (default 8; tiny samples make
	// every rate look extreme).
	RollbackMinActed int
	// RollbackVetoFactor trips a rollback when the canary veto rate
	// exceeds this multiple of the incumbent's lifetime veto rate
	// (default 3).
	RollbackVetoFactor float64
	// RollbackVetoFloor is the veto rate below which the factor check
	// never trips, whatever the incumbent's rate (default 0.35) — it
	// keeps a near-zero incumbent rate from making any veto fatal.
	RollbackVetoFloor float64
	// RollbackFailOpenDelta trips a rollback when the fail-open rate
	// during the canary exceeds the pre-canary rate by this much
	// (default 0.2).
	RollbackFailOpenDelta float64

	// Bins is the PSI quantile-bin count (default DefaultBins).
	Bins int
	// Seed offsets the retrain seeds so lifecycle training is decoupled
	// from the trial's other random streams.
	Seed int64
}

// fill returns cfg with defaults applied to zero fields.
func (c Config) fill() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.WindowDecisions, 128)
	def(&c.CheckEvery, 16)
	deff(&c.PSIThreshold, 0.25)
	def(&c.MinDriftFeatures, 8)
	deff(&c.OutlierMargin, 0.25)
	deff(&c.DriftCooldown, 300)
	def(&c.LabelWindow, 64)
	def(&c.MinLabels, 30)
	deff(&c.LabelRateDelta, 0.2)
	def(&c.RetrainWindow, 240)
	def(&c.RetrainMinSamples, 60)
	def(&c.RetrainMinVariation, 5)
	deff(&c.RetrainCooldown, 900)
	def(&c.ShadowMinLabeled, 40)
	def(&c.ShadowMaxLabeled, 6*c.ShadowMinLabeled)
	deff(&c.PromoteMargin, 0.02)
	deff(&c.CanaryFraction, 0.25)
	def(&c.CanaryMinActed, 20)
	def(&c.RollbackMinActed, 8)
	deff(&c.RollbackVetoFactor, 3)
	deff(&c.RollbackVetoFloor, 0.35)
	deff(&c.RollbackFailOpenDelta, 0.2)
	def(&c.Bins, DefaultBins)
	return c
}

// Validate rejects configurations that cannot work.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.CanaryFraction < 0 || c.CanaryFraction > 1 {
		return fmt.Errorf("lifecycle: CanaryFraction %v outside [0, 1]", c.CanaryFraction)
	}
	if c.PromoteMargin < 0 {
		return fmt.Errorf("lifecycle: negative PromoteMargin %v", c.PromoteMargin)
	}
	if c.PSIThreshold < 0 {
		return fmt.Errorf("lifecycle: negative PSIThreshold %v", c.PSIThreshold)
	}
	if c.WarmupTime < 0 {
		return fmt.Errorf("lifecycle: negative WarmupTime %v", c.WarmupTime)
	}
	return nil
}

// ModelHost is where a promoted challenger goes — the RUSH gate
// implements it via SwapModel.
type ModelHost interface {
	SwapModel(mlkit.Classifier)
}

// Deps are the manager's runtime collaborators, all injected so the
// package stays simulator-agnostic and unit-testable.
type Deps struct {
	// Host receives promoted challengers.
	Host ModelHost
	// Now returns the current simulated time in seconds.
	Now func() float64
	// Stats are the training-set per-app run-time statistics realized
	// outcomes are labeled against (the same rule the dataset used).
	Stats map[string]dataset.AppStat
	// Reference is the training-time distribution profile; nil makes
	// the manager self-calibrate its reference from the first feature
	// window it observes (drift is then measured against deployment
	// start rather than training time).
	Reference *Reference
	// NewModel constructs an untrained challenger; the manager seeds it
	// deterministically per generation.
	NewModel func(seed int64) (mlkit.Classifier, error)
	// VariationLabels is the gate's veto label set, so canary decisions
	// veto exactly as the gate would with the challenger installed.
	VariationLabels map[int]bool
	// Observer carries drift/lifecycle trace events and metrics; nil
	// disables observation.
	Observer *obs.Observer
	// Hash seeds the pure canary-assignment hash.
	Hash *sim.Source
}

// Phase gauge values (metrics registry "lifecycle_phase").
const (
	phaseIdle = iota
	phaseShadow
	phaseCanary
)

// pending is the per-job record pairing an evaluated decision's features
// and predictions with the job's eventual realized outcome.
type pending struct {
	feats    []float64
	incClass int
	chClass  int
	hasCh    bool
}

// Manager implements sched.DecisionHook: it observes every gate
// decision, detects drift, and runs the shadow/canary model registry.
// Not safe for concurrent use — it lives inside one trial's
// single-threaded event loop, like the scheduler itself.
type Manager struct {
	cfg  Config
	deps Deps

	ref *Reference
	det *detector
	win *sampleWindow

	// Self-calibration buffer, used only when Deps.Reference is nil.
	calib [][]float64

	phase      int
	gen        int
	challenger mlkit.Classifier
	chProbs    []float64
	confInc    confusion
	confCh     confusion
	labeled    int

	pendingByJob map[int]*pending
	freePending  []*pending

	// Lifetime accounting.
	calls       int // Decide + FailOpen invocations
	decisions   int // evaluated decisions (Decide calls)
	incVetoes   int // incumbent verdicts that were vetoes
	failOpens   int
	sinceCheck  int
	lastDrift   float64
	lastRetrain float64

	// Canary-interval snapshots.
	canaryActed     int
	canaryVetoes    int
	callsAtCanary   int
	foAtCanary      int
	preFailOpenRate float64

	// Last retrain's training set, kept to rebuild the reference when
	// its model is promoted.
	trainX [][]float64
	trainY []int

	// Exported totals, copied into Trial metrics by the experiment
	// runner.
	DriftDetections int
	FirstDriftAt    float64 // simulated seconds; -1 until the first detection
	Retrains        int
	Promotions      int
	Rollbacks       int
	ShadowDecisions int
	CanaryActed     int

	cDrift       *obs.Counter
	cRetrains    *obs.Counter
	cPromotions  *obs.Counter
	cRollbacks   *obs.Counter
	cShadow      *obs.Counter
	cCanaryActed *obs.Counter
	cLabels      *obs.Counter
	cTrainErr    *obs.Counter
	gPhase       *obs.Gauge
}

// New returns a lifecycle manager, or nil when cfg.Enabled is false —
// callers install the hook only on a non-nil result, keeping the
// disabled gate at its zero-overhead nil-hook path.
func New(cfg Config, deps Deps) (*Manager, error) {
	if !cfg.Enabled {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.fill()
	m := &Manager{
		cfg:          cfg,
		deps:         deps,
		ref:          deps.Reference,
		win:          newSampleWindow(cfg.RetrainWindow),
		pendingByJob: make(map[int]*pending),
		FirstDriftAt: -1,
		lastDrift:    -1e18,
		lastRetrain:  -1e18,
	}
	if m.ref != nil {
		m.det = newDetector(m.ref, cfg.WindowDecisions, cfg.LabelWindow, cfg.OutlierMargin)
	}
	reg := deps.Observer.Metrics()
	m.cDrift = reg.Counter("lifecycle_drift_detected_total")
	m.cRetrains = reg.Counter("lifecycle_retrains_total")
	m.cPromotions = reg.Counter("lifecycle_promotions_total")
	m.cRollbacks = reg.Counter("lifecycle_rollbacks_total")
	m.cShadow = reg.Counter("lifecycle_shadow_predictions_total")
	m.cCanaryActed = reg.Counter("lifecycle_canary_acted_total")
	m.cLabels = reg.Counter("lifecycle_labels_total")
	m.cTrainErr = reg.Counter("lifecycle_train_errors_total")
	m.gPhase = reg.Gauge("lifecycle_phase")
	m.gPhase.Set(phaseIdle)
	return m, nil
}

// Decide implements sched.DecisionHook. It records the decision for
// outcome pairing, feeds the drift detector, shadow-predicts with any
// in-flight challenger, and during a canary phase substitutes the
// challenger's verdict on the seeded canary fraction.
func (m *Manager) Decide(j *sched.Job, feats []float64, class int, veto bool) bool {
	now := m.deps.Now()
	m.calls++
	m.decisions++
	if veto {
		m.incVetoes++
	}
	m.observeFeatures(now, feats)
	if m.phase == phaseIdle && m.cfg.RetrainEvery > 0 && now-m.lastRetrain >= m.cfg.RetrainEvery {
		m.retrain(now)
	}
	p := m.pendingFor(j.ID)
	if cap(p.feats) < len(feats) {
		p.feats = make([]float64, len(feats))
	}
	p.feats = p.feats[:len(feats)]
	copy(p.feats, feats)
	p.incClass = class
	p.hasCh = false
	final := veto
	if m.phase != phaseIdle && m.challenger != nil {
		chClass := m.shadowPredict(feats)
		p.chClass = chClass
		p.hasCh = true
		m.ShadowDecisions++
		m.cShadow.Inc()
		if m.phase == phaseCanary &&
			m.deps.Hash.HashUnit(tagCanary, uint64(j.ID), uint64(j.Skips)) < m.cfg.CanaryFraction {
			final = m.deps.VariationLabels[chClass]
			m.canaryActed++
			m.CanaryActed++
			m.cCanaryActed.Inc()
			if final {
				m.canaryVetoes++
			}
			m.checkCanaryHealth(now)
		}
	}
	return final
}

// FailOpen implements sched.DecisionHook. The job launches with no model
// consulted, so any pending evaluated decision for it no longer pairs
// with the eventual outcome and is dropped.
func (m *Manager) FailOpen(j *sched.Job, reason string) {
	m.calls++
	m.failOpens++
	m.release(j.ID)
	if m.phase == phaseCanary {
		m.checkCanaryHealth(m.deps.Now())
	}
}

// Override implements sched.DecisionHook: the job was forced through on
// its skip threshold, again decoupling outcome from prediction.
func (m *Manager) Override(j *sched.Job) {
	m.release(j.ID)
}

// JobCompleted is the scheduler's OnComplete callback: it labels the
// realized outcome against the training statistics and scores both the
// incumbent's and any challenger's recorded predictions against it.
// Failed (killed) jobs carry no meaningful run time and are not scored.
func (m *Manager) JobCompleted(j *sched.Job) {
	p, ok := m.pendingByJob[j.ID]
	if !ok {
		return
	}
	if j.Failed {
		m.release(j.ID)
		return
	}
	label := dataset.LabelWith(m.deps.Stats, j.App.Name, j.RunTime())
	m.cLabels.Inc()
	if m.det != nil {
		m.det.observeLabel(label)
	}
	m.win.add(p.feats, label)
	if p.hasCh && m.phase != phaseIdle {
		m.confInc.add(label, p.incClass)
		m.confCh.add(label, p.chClass)
		m.labeled++
		if m.phase == phaseShadow {
			m.checkPromotion(m.deps.Now())
		}
	}
	m.release(j.ID)
}

// observeFeatures feeds the drift detector (or the self-calibration
// buffer) and runs the periodic drift checks.
func (m *Manager) observeFeatures(now float64, feats []float64) {
	if now < m.cfg.WarmupTime {
		return
	}
	if m.det == nil {
		// No training-time reference was provided: profile the first
		// feature window as the baseline distribution.
		m.calib = append(m.calib, append([]float64(nil), feats...))
		if len(m.calib) < m.cfg.WindowDecisions {
			return
		}
		m.ref = BuildReference(m.calib, nil, m.cfg.Bins)
		m.det = newDetector(m.ref, m.cfg.WindowDecisions, m.cfg.LabelWindow, m.cfg.OutlierMargin)
		m.calib = nil
		return
	}
	m.det.observe(feats)
	m.sinceCheck++
	if m.sinceCheck < m.cfg.CheckEvery {
		return
	}
	m.sinceCheck = 0
	if now-m.lastDrift < m.cfg.DriftCooldown {
		return
	}
	if over, maxPSI, ready := m.det.checkFeatures(m.cfg.PSIThreshold); ready && over >= m.cfg.MinDriftFeatures {
		m.driftDetected(now, obs.SignalFeatures, maxPSI, over)
		return
	}
	if delta, ready := m.det.checkLabels(m.ref.VariationRate, m.cfg.MinLabels); ready && delta > m.cfg.LabelRateDelta {
		m.driftDetected(now, obs.SignalLabels, delta, 0)
	}
}

// driftDetected records one drift episode and triggers a retrain when
// the registry is idle.
func (m *Manager) driftDetected(now float64, signal string, score float64, features int) {
	m.lastDrift = now
	m.DriftDetections++
	m.cDrift.Inc()
	if m.FirstDriftAt < 0 {
		m.FirstDriftAt = now
	}
	m.deps.Observer.Emit(obs.Event{Time: now, Kind: obs.KindDrift,
		Signal: signal, Score: score, Features: features})
	if m.phase == phaseIdle && now-m.lastRetrain >= m.cfg.RetrainCooldown {
		m.retrain(now)
	}
}

// retrain fits a new challenger generation from the rolling window and
// enters the shadow phase. Insufficient or degenerate windows are a
// silent no-op (the next drift episode retries); fit errors count on the
// lifecycle_train_errors_total counter and start the retrain cooldown.
func (m *Manager) retrain(now float64) {
	if m.deps.NewModel == nil {
		return
	}
	if m.win.len() < m.cfg.RetrainMinSamples ||
		m.win.variationCount() < m.cfg.RetrainMinVariation ||
		m.win.classCount() < 2 {
		return
	}
	x, y := m.win.snapshot()
	model, err := m.deps.NewModel(m.cfg.Seed + int64(m.gen) + 1)
	if err == nil {
		err = model.Fit(x, y)
	}
	m.lastRetrain = now
	if err != nil {
		m.cTrainErr.Inc()
		return
	}
	m.gen++
	m.challenger = model
	m.trainX, m.trainY = x, y
	m.confInc.reset()
	m.confCh.reset()
	m.labeled = 0
	m.phase = phaseShadow
	m.gPhase.Set(phaseShadow)
	m.Retrains++
	m.cRetrains.Inc()
	m.deps.Observer.Emit(obs.Event{Time: now, Kind: obs.KindLifecycle,
		Phase: obs.PhaseShadow, Gen: m.gen, Count: len(y), F1C: -1, F1I: -1})
}

// checkPromotion decides a shadow challenger's fate once enough paired
// labeled decisions accumulated: promote to canary on an F1 win by the
// configured margin, discard after the shadow budget runs out.
func (m *Manager) checkPromotion(now float64) {
	if m.labeled < m.cfg.ShadowMinLabeled {
		return
	}
	f1c := m.confCh.f1(variationClass)
	f1i := m.confInc.f1(variationClass)
	if f1c >= f1i+m.cfg.PromoteMargin {
		m.phase = phaseCanary
		m.gPhase.Set(phaseCanary)
		m.canaryActed = 0
		m.canaryVetoes = 0
		m.callsAtCanary = m.calls
		m.foAtCanary = m.failOpens
		m.preFailOpenRate = float64(m.failOpens) / float64(max(1, m.calls))
		m.deps.Observer.Emit(obs.Event{Time: now, Kind: obs.KindLifecycle,
			Phase: obs.PhaseCanary, Gen: m.gen, Count: m.labeled, F1C: f1c, F1I: f1i})
		return
	}
	if m.labeled >= m.cfg.ShadowMaxLabeled {
		m.deps.Observer.Emit(obs.Event{Time: now, Kind: obs.KindLifecycle,
			Phase: obs.PhaseDiscarded, Gen: m.gen, Count: m.labeled, F1C: f1c, F1I: f1i})
		m.challenger = nil
		m.phase = phaseIdle
		m.gPhase.Set(phaseIdle)
	}
}

// checkCanaryHealth watches the acting challenger: a veto rate far above
// the incumbent's, or a fail-open rate regression, rolls it back
// immediately; surviving CanaryMinActed acted decisions promotes it.
func (m *Manager) checkCanaryHealth(now float64) {
	if m.canaryActed < m.cfg.RollbackMinActed {
		return
	}
	vetoRate := float64(m.canaryVetoes) / float64(m.canaryActed)
	baseRate := float64(m.incVetoes) / float64(max(1, m.decisions))
	limit := m.cfg.RollbackVetoFactor * baseRate
	if limit < m.cfg.RollbackVetoFloor {
		limit = m.cfg.RollbackVetoFloor
	}
	if vetoRate > limit {
		m.rollback(now, "veto-rate")
		return
	}
	if calls := m.calls - m.callsAtCanary; calls >= m.cfg.RollbackMinActed {
		foRate := float64(m.failOpens-m.foAtCanary) / float64(calls)
		if foRate > m.preFailOpenRate+m.cfg.RollbackFailOpenDelta {
			m.rollback(now, "fail-open-rate")
			return
		}
	}
	if m.canaryActed >= m.cfg.CanaryMinActed {
		m.promote(now)
	}
}

// promote installs the challenger as the incumbent and re-anchors the
// drift detector on the challenger's training distribution — drift is
// always measured against what the live model learned from.
func (m *Manager) promote(now float64) {
	if m.deps.Host != nil {
		m.deps.Host.SwapModel(m.challenger)
	}
	m.ref = BuildReference(m.trainX, m.trainY, m.cfg.Bins)
	m.det = newDetector(m.ref, m.cfg.WindowDecisions, m.cfg.LabelWindow, m.cfg.OutlierMargin)
	m.trainX, m.trainY = nil, nil
	m.Promotions++
	m.cPromotions.Inc()
	m.deps.Observer.Emit(obs.Event{Time: now, Kind: obs.KindLifecycle,
		Phase: obs.PhasePromoted, Gen: m.gen, Count: m.canaryActed,
		F1C: m.confCh.f1(variationClass), F1I: m.confInc.f1(variationClass)})
	m.challenger = nil
	m.phase = phaseIdle
	m.gPhase.Set(phaseIdle)
	m.lastRetrain = now
	m.lastDrift = now
}

// rollback abandons the canary challenger; the incumbent was never
// replaced, so there is nothing to restore beyond clearing the phase.
func (m *Manager) rollback(now float64, reason string) {
	m.Rollbacks++
	m.cRollbacks.Inc()
	m.deps.Observer.Emit(obs.Event{Time: now, Kind: obs.KindLifecycle,
		Phase: obs.PhaseRolledBack, Gen: m.gen, Count: m.canaryActed, Reason: reason,
		F1C: m.confCh.f1(variationClass), F1I: m.confInc.f1(variationClass)})
	m.challenger = nil
	m.trainX, m.trainY = nil, nil
	m.phase = phaseIdle
	m.gPhase.Set(phaseIdle)
	m.lastRetrain = now
}

// shadowPredict runs the challenger on one decision's features, via the
// allocation-free PredictProbaInto when the model supports it.
func (m *Manager) shadowPredict(feats []float64) int {
	if fp, ok := m.challenger.(mlkit.FastProbaPredictor); ok {
		classes := fp.Classes()
		if cap(m.chProbs) < len(classes) {
			m.chProbs = make([]float64, len(classes))
		}
		return fp.PredictProbaInto(feats, m.chProbs[:len(classes)])
	}
	return m.challenger.Predict(feats)
}

// Phase returns the current phase name, for tests and reports.
func (m *Manager) Phase() string {
	switch m.phase {
	case phaseShadow:
		return obs.PhaseShadow
	case phaseCanary:
		return obs.PhaseCanary
	default:
		return "idle"
	}
}

// pendingFor returns the job's pending record, creating (or reusing a
// freed) one as needed.
func (m *Manager) pendingFor(jobID int) *pending {
	if p, ok := m.pendingByJob[jobID]; ok {
		return p
	}
	var p *pending
	if n := len(m.freePending); n > 0 {
		p = m.freePending[n-1]
		m.freePending = m.freePending[:n-1]
	} else {
		p = &pending{}
	}
	m.pendingByJob[jobID] = p
	return p
}

// release drops a job's pending record back onto the freelist.
func (m *Manager) release(jobID int) {
	if p, ok := m.pendingByJob[jobID]; ok {
		delete(m.pendingByJob, jobID)
		m.freePending = append(m.freePending, p)
	}
}

// confusion is a fixed-size confusion matrix over the three outcome
// classes; out-of-range labels are ignored.
type confusion struct {
	counts [3][3]int
}

func (c *confusion) add(yTrue, yPred int) {
	if yTrue < 0 || yTrue >= 3 || yPred < 0 || yPred >= 3 {
		return
	}
	c.counts[yTrue][yPred]++
}

func (c *confusion) reset() { c.counts = [3][3]int{} }

// f1 is the F-measure for class pos, mirroring mlkit.Confusion.F1.
func (c *confusion) f1(pos int) float64 {
	var tp, fp, fn int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			n := c.counts[i][j]
			switch {
			case i == pos && j == pos:
				tp += n
			case i != pos && j == pos:
				fp += n
			case i == pos && j != pos:
				fn += n
			}
		}
	}
	if 2*tp+fp+fn == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}

// tagCanary keys the pure canary-assignment hash (FNV-1a of "canary").
var tagCanary = fnv1a("canary")

func fnv1a(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(s) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
