package lifecycle

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"rush/internal/apps"
	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/serve"
	"rush/internal/sim"
)

// --- detector -------------------------------------------------------------

func TestBuildReferenceProfilesColumns(t *testing.T) {
	x := make([][]float64, 100)
	y := make([]int, 100)
	for i := range x {
		// Feature 0 spreads 0..99, feature 1 is constant, feature 2 is
		// all-NaN.
		x[i] = []float64{float64(i), 7, math.NaN()}
		if i%10 == 0 {
			y[i] = dataset.LabelVariation
		}
	}
	ref := BuildReference(x, y, 0)
	if ref.Edges[0] == nil || ref.Props[0] == nil {
		t.Fatal("spread feature must be profiled")
	}
	if ref.Edges[1] != nil {
		t.Fatal("constant feature must be excluded")
	}
	if ref.Edges[2] != nil {
		t.Fatal("all-NaN feature must be excluded")
	}
	var sum float64
	for _, p := range ref.Props[0] {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("bin proportions sum to %v, want 1", sum)
	}
	if math.Abs(ref.VariationRate-0.1) > 1e-12 {
		t.Fatalf("variation rate = %v, want 0.1", ref.VariationRate)
	}
	if BuildReference(x, nil, 0).VariationRate != -1 {
		t.Fatal("missing labels must disable the label check")
	}
}

func TestDetectorTripsOnShiftedFeatures(t *testing.T) {
	x := make([][]float64, 200)
	for i := range x {
		x[i] = []float64{float64(i % 100)}
	}
	ref := BuildReference(x, nil, 0)
	det := newDetector(ref, 50, 10, 0.25)

	// In-distribution stream: no drift.
	for i := 0; i < 50; i++ {
		det.observe([]float64{float64(i * 2 % 100)})
	}
	over, maxPSI, ready := det.checkFeatures(0.25)
	if !ready {
		t.Fatal("full window must be ready")
	}
	if over != 0 {
		t.Fatalf("in-distribution stream tripped %d features (max PSI %v)", over, maxPSI)
	}

	// Shifted stream: every value lands in the top bin.
	for i := 0; i < 50; i++ {
		det.observe([]float64{1000})
	}
	over, maxPSI, _ = det.checkFeatures(0.25)
	if over != 1 || maxPSI < 0.25 {
		t.Fatalf("shifted stream: over=%d maxPSI=%v, want the feature tripped", over, maxPSI)
	}
}

func TestDetectorNotReadyBeforeWindowFills(t *testing.T) {
	ref := BuildReference([][]float64{{0}, {1}, {2}, {3}}, nil, 0)
	det := newDetector(ref, 10, 10, 0.25)
	det.observe([]float64{100})
	if _, _, ready := det.checkFeatures(0.25); ready {
		t.Fatal("partial window must not be ready")
	}
}

func TestDetectorLabelRateShift(t *testing.T) {
	ref := &Reference{VariationRate: 0.1}
	det := newDetector(ref, 10, 20, 0.25)
	for i := 0; i < 20; i++ {
		det.observeLabel(dataset.LabelVariation)
	}
	delta, ready := det.checkLabels(ref.VariationRate, 15)
	if !ready {
		t.Fatal("label window must be ready after 20 outcomes")
	}
	if math.Abs(delta-0.9) > 1e-12 {
		t.Fatalf("delta = %v, want 0.9", delta)
	}
	if _, ready := det.checkLabels(-1, 1); ready {
		t.Fatal("unknown training rate must disable the check")
	}
}

// --- manager state machine ------------------------------------------------

// stubModel predicts via a fixed function; Fit records the training set.
type stubModel struct {
	name    string
	classFn func(feats []float64) int
	fitX    int
}

func (s *stubModel) Fit(x [][]float64, y []int) error { s.fitX = len(x); return nil }
func (s *stubModel) Predict(f []float64) int          { return s.classFn(f) }
func (s *stubModel) Name() string                     { return s.name }

// swapHost records promoted models.
type swapHost struct{ swapped []mlkit.Classifier }

func (h *swapHost) SwapModel(m mlkit.Classifier) { h.swapped = append(h.swapped, m) }

// The serving daemon is a host a Manager can promote into.
var _ ModelHost = (*serve.Server)(nil)

// lifecycleEnv drives a Manager directly, standing in for the gate and
// scheduler: decide() is one evaluated gate decision, complete() the
// job's eventual finish.
type lifecycleEnv struct {
	t     *testing.T
	m     *Manager
	host  *swapHost
	now   float64
	trace bytes.Buffer
	reg   *obs.Registry
	jobs  map[int]*sched.Job
}

// newLifecycleEnv builds a manager over a 1-feature world: feats[0] > 0.5
// means the job will realize a variation run time. The incumbent is
// blind (always predicts LabelNone); the challenger behaviour is
// injectable via newModel.
func newLifecycleEnv(t *testing.T, cfg Config, ref *Reference, newModel func(seed int64) (mlkit.Classifier, error)) *lifecycleEnv {
	env := &lifecycleEnv{t: t, host: &swapHost{}, reg: obs.NewRegistry(), jobs: map[int]*sched.Job{}}
	cfg.Enabled = true
	m, err := New(cfg, Deps{
		Host:            env.host,
		Now:             func() float64 { return env.now },
		Stats:           map[string]dataset.AppStat{"A": {N: 50, Mean: 100, Std: 10, Min: 80}},
		Reference:       ref,
		NewModel:        newModel,
		VariationLabels: map[int]bool{dataset.LabelVariation: true},
		Observer:        obs.New(obs.NewTracer(&env.trace), env.reg),
		Hash:            sim.NewSource(7).Derive("lifecycle"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("enabled config returned a nil manager")
	}
	env.m = m
	return env
}

// decide runs one evaluated decision for job id with the given feature
// value; the blind incumbent predicts LabelNone and never vetoes.
// Returns the final veto decision.
func (e *lifecycleEnv) decide(id int, feat float64) bool {
	j, ok := e.jobs[id]
	if !ok {
		j = &sched.Job{ID: id, App: apps.Profile{Name: "A"}}
		e.jobs[id] = j
	}
	e.now += 10
	return e.m.Decide(j, []float64{feat}, dataset.LabelNone, false)
}

// complete finishes job id: variation features realize a 120 s run time
// (z = 2, labeled variation), calm ones 100 s (labeled none).
func (e *lifecycleEnv) complete(id int, feat float64) {
	j := e.jobs[id]
	j.StartTime = 0
	if feat > 0.5 {
		j.EndTime = 120
	} else {
		j.EndTime = 100
	}
	e.m.JobCompleted(j)
	delete(e.jobs, id)
}

// featFor alternates calm/variation features per job id.
func featFor(id int) float64 {
	if id%2 == 1 {
		return 1.0
	}
	return 0
}

// smallConfig keeps every threshold tiny so state transitions happen
// within a few dozen synthetic decisions.
func smallConfig() Config {
	return Config{
		WindowDecisions: 8, CheckEvery: 4, MinDriftFeatures: 1,
		RetrainWindow: 64, RetrainMinSamples: 10, RetrainMinVariation: 2,
		RetrainCooldown: 1, RetrainEvery: 50,
		ShadowMinLabeled: 10, ShadowMaxLabeled: 24, PromoteMargin: 0.01,
		CanaryFraction: 1.0, CanaryMinActed: 5, RollbackMinActed: 3,
		RollbackVetoFloor: 0.9, Seed: 1,
	}
}

// trainingRef profiles the feature stream featFor produces.
func trainingRef() *Reference {
	x := make([][]float64, 100)
	y := make([]int, 100)
	for i := range x {
		x[i] = []float64{featFor(i)}
		if featFor(i) > 0.5 {
			y[i] = dataset.LabelVariation
		}
	}
	return BuildReference(x, y, 0)
}

func TestManagerPromotesWinningChallenger(t *testing.T) {
	// Challenger predicts perfectly from the feature the incumbent
	// ignores.
	env := newLifecycleEnv(t, smallConfig(), trainingRef(), func(seed int64) (mlkit.Classifier, error) {
		return &stubModel{name: "sharp", classFn: func(f []float64) int {
			if f[0] > 0.5 {
				return dataset.LabelVariation
			}
			return dataset.LabelNone
		}}, nil
	})
	id := 0
	for step := 0; step < 400 && env.m.Promotions == 0; step++ {
		id++
		veto := env.decide(id, featFor(id))
		if !veto {
			env.complete(id, featFor(id))
		}
	}
	if env.m.Retrains < 1 {
		t.Fatalf("retrains = %d, want >= 1", env.m.Retrains)
	}
	if env.m.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1 (phase %s)", env.m.Promotions, env.m.Phase())
	}
	if env.m.Rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want 0", env.m.Rollbacks)
	}
	if len(env.host.swapped) != 1 {
		t.Fatalf("SwapModel calls = %d, want 1", len(env.host.swapped))
	}
	if got := env.host.swapped[0].Name(); got != "sharp" {
		t.Fatalf("promoted model %q, want the challenger", got)
	}
	trace := env.trace.String()
	for _, phase := range []string{obs.PhaseShadow, obs.PhaseCanary, obs.PhasePromoted} {
		if !strings.Contains(trace, fmt.Sprintf("%q:%q", "phase", phase)) {
			t.Fatalf("trace missing lifecycle phase %q:\n%s", phase, trace)
		}
	}
	snap := env.reg.Snapshot()
	counters := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["lifecycle_promotions_total"] != 1 {
		t.Fatalf("lifecycle_promotions_total = %v, want 1", counters["lifecycle_promotions_total"])
	}
	if counters["lifecycle_retrains_total"] < 1 {
		t.Fatalf("lifecycle_retrains_total = %v, want >= 1", counters["lifecycle_retrains_total"])
	}
}

func TestManagerRollsBackPoisonedChallenger(t *testing.T) {
	// The challenger vetoes everything. In shadow its variation recall is
	// perfect (F1 beats the blind incumbent) so it reaches the canary —
	// where its veto rate trips the rollback guard.
	cfg := smallConfig()
	cfg.RollbackVetoFloor = 0.5
	env := newLifecycleEnv(t, cfg, trainingRef(), func(seed int64) (mlkit.Classifier, error) {
		return &stubModel{name: "poisoned", classFn: func(f []float64) int {
			return dataset.LabelVariation
		}}, nil
	})
	id := 0
	for step := 0; step < 400 && env.m.Rollbacks == 0; step++ {
		id++
		veto := env.decide(id, featFor(id))
		if !veto {
			env.complete(id, featFor(id))
		}
	}
	if env.m.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1 (phase %s)", env.m.Rollbacks, env.m.Phase())
	}
	if env.m.Promotions != 0 {
		t.Fatalf("promotions = %d, want 0", env.m.Promotions)
	}
	if len(env.host.swapped) != 0 {
		t.Fatal("a rolled-back challenger must never be promoted")
	}
	trace := env.trace.String()
	if !strings.Contains(trace, `"phase":"rolled-back"`) || !strings.Contains(trace, `"reason":"veto-rate"`) {
		t.Fatalf("trace missing veto-rate rollback event:\n%s", trace)
	}
	if env.m.Phase() != "idle" {
		t.Fatalf("phase after rollback = %s, want idle", env.m.Phase())
	}
}

func TestManagerDiscardsChallengerThatNeverWins(t *testing.T) {
	// The challenger mirrors the blind incumbent exactly: no F1 margin,
	// so the shadow budget runs out and the challenger is dropped
	// without ever acting.
	env := newLifecycleEnv(t, smallConfig(), trainingRef(), func(seed int64) (mlkit.Classifier, error) {
		return &stubModel{name: "clone", classFn: func(f []float64) int {
			return dataset.LabelNone
		}}, nil
	})
	id := 0
	for step := 0; step < 400 && !strings.Contains(env.trace.String(), `"phase":"discarded"`); step++ {
		id++
		if !env.decide(id, featFor(id)) {
			env.complete(id, featFor(id))
		}
	}
	if !strings.Contains(env.trace.String(), `"phase":"discarded"`) {
		t.Fatalf("challenger was never discarded (phase %s, retrains %d)", env.m.Phase(), env.m.Retrains)
	}
	if env.m.Promotions != 0 || env.m.Rollbacks != 0 || env.m.CanaryActed != 0 {
		t.Fatalf("discarded challenger must not act: promotions=%d rollbacks=%d acted=%d",
			env.m.Promotions, env.m.Rollbacks, env.m.CanaryActed)
	}
}

func TestManagerDetectsFeatureDrift(t *testing.T) {
	cfg := smallConfig()
	cfg.RetrainEvery = 0 // drift-triggered retraining only
	env := newLifecycleEnv(t, cfg, trainingRef(), func(seed int64) (mlkit.Classifier, error) {
		return &stubModel{name: "fresh", classFn: func(f []float64) int { return dataset.LabelNone }}, nil
	})
	// In-distribution phase fills the retrain window without tripping.
	id := 0
	for ; id < 30; id++ {
		if !env.decide(id, featFor(id)) {
			env.complete(id, featFor(id))
		}
	}
	if env.m.DriftDetections != 0 {
		t.Fatalf("in-distribution stream detected drift %d times", env.m.DriftDetections)
	}
	// Shifted phase: every feature lands far outside the reference.
	for ; id < 80 && env.m.DriftDetections == 0; id++ {
		if !env.decide(id, 50) {
			env.complete(id, 50)
		}
	}
	if env.m.DriftDetections == 0 {
		t.Fatal("shifted stream never tripped the detector")
	}
	if env.m.FirstDriftAt < 0 {
		t.Fatal("FirstDriftAt must record the detection time")
	}
	if env.m.Retrains != 1 {
		t.Fatalf("drift must trigger one retrain, got %d", env.m.Retrains)
	}
	if !strings.Contains(env.trace.String(), `"kind":"drift"`) {
		t.Fatalf("trace missing drift event:\n%s", env.trace.String())
	}
	if !strings.Contains(env.trace.String(), `"signal":"features"`) {
		t.Fatalf("drift event missing features signal:\n%s", env.trace.String())
	}
}

func TestManagerFailOpenAndOverrideDropPending(t *testing.T) {
	env := newLifecycleEnv(t, smallConfig(), trainingRef(), func(seed int64) (mlkit.Classifier, error) {
		return &stubModel{name: "x", classFn: func(f []float64) int { return dataset.LabelNone }}, nil
	})
	env.decide(1, 1.0)
	env.m.FailOpen(env.jobs[1], obs.ReasonModelDown)
	env.complete(1, 1.0)
	env.decide(2, 1.0)
	env.m.Override(env.jobs[2])
	env.complete(2, 1.0)
	if env.m.win.len() != 0 {
		t.Fatalf("fail-open/override outcomes must not be paired with stale decisions; window has %d", env.m.win.len())
	}
}

func TestManagerDisabledReturnsNil(t *testing.T) {
	m, err := New(Config{}, Deps{})
	if err != nil || m != nil {
		t.Fatalf("disabled config: m=%v err=%v, want nil/nil", m, err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := Config{Enabled: true, CanaryFraction: 1.5}
	if _, err := New(bad, Deps{}); err == nil {
		t.Fatal("CanaryFraction > 1 must be rejected")
	}
	bad = Config{Enabled: true, PromoteMargin: -0.1}
	if _, err := New(bad, Deps{}); err == nil {
		t.Fatal("negative PromoteMargin must be rejected")
	}
}

func TestManagerSelfCalibratesWithoutReference(t *testing.T) {
	cfg := smallConfig()
	cfg.RetrainEvery = 0
	env := newLifecycleEnv(t, cfg, nil, func(seed int64) (mlkit.Classifier, error) {
		return &stubModel{name: "x", classFn: func(f []float64) int { return dataset.LabelNone }}, nil
	})
	id := 0
	// Calibration window plus an in-distribution stretch.
	for ; id < 30; id++ {
		if !env.decide(id, featFor(id)) {
			env.complete(id, featFor(id))
		}
	}
	if env.m.DriftDetections != 0 {
		t.Fatalf("steady stream after self-calibration detected drift %d times", env.m.DriftDetections)
	}
	for ; id < 90 && env.m.DriftDetections == 0; id++ {
		if !env.decide(id, 50) {
			env.complete(id, 50)
		}
	}
	if env.m.DriftDetections == 0 {
		t.Fatal("self-calibrated detector never tripped on a shifted stream")
	}
}
