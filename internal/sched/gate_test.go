package sched

import (
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/dataset"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// trainedToyModel returns a forest trained so that prediction flips with
// a congestion-driven feature: it learns "variation iff max xmit wait is
// high". The feature vector layout matches dataset.BuildFeatures, and
// the xmit-wait counter responds to pod overload.
func trainedToyModel(t *testing.T, m *machine.Machine) mlkit.Classifier {
	t.Helper()
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
	bg := m.NewBackground()
	gate := NewRUSH(m, nil)

	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		load := 0.2
		label := dataset.LabelNone
		if i%2 == 1 {
			load = 1.15
			label = dataset.LabelVariation
		}
		bg.Set(simnet.Contribution{PodNet: map[int]float64{0: load}})
		m.Eng.RunUntil(m.Eng.Now() + 400)
		// LiveFeatures returns a reused buffer; keep a copy per row.
		feats := append([]float64(nil), gate.LiveFeatures(alloc, apps.NetworkIntensive)...)
		x = append(x, feats)
		y = append(y, label)
	}
	bg.Set(simnet.Contribution{})
	model := mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 15, MaxDepth: 4, Seed: 1})
	if err := model.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return model
}

func gateMachine() *machine.Machine {
	eng := sim.New(77)
	m, err := machine.New(eng, cluster.Topology{Nodes: 64, PodSize: 64, CoresPerNode: 4})
	if err != nil {
		panic(err)
	}
	return m
}

func TestRUSHGateVetoesUnderCongestion(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	bg := m.NewBackground()
	alloc, _ := m.Alloc.Alloc(4)
	j := job(0, 4, 100)

	// Calm: the gate must allow.
	m.Eng.RunUntil(m.Eng.Now() + 400)
	if !gate.Allow(j, alloc) {
		t.Fatal("gate vetoed on a calm machine")
	}
	// Congested: the gate must veto.
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.15}})
	m.Eng.RunUntil(m.Eng.Now() + 400)
	if gate.Allow(j, alloc) {
		t.Fatal("gate allowed on a congested machine")
	}
	if gate.Evaluations != 2 || gate.Vetoes != 1 {
		t.Fatalf("gate counters wrong: evals=%d vetoes=%d", gate.Evaluations, gate.Vetoes)
	}
}

func TestRUSHGateSkipThresholdShortCircuits(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.15}})
	m.Eng.RunUntil(m.Eng.Now() + 400)

	alloc, _ := m.Alloc.Alloc(4)
	j := job(0, 4, 100)
	j.Skips = j.SkipLimit() // exhausted: must start despite congestion
	if !gate.Allow(j, alloc) {
		t.Fatal("exhausted skip threshold must force the start")
	}
	if gate.ThresholdOverrides != 1 {
		t.Fatalf("overrides = %d", gate.ThresholdOverrides)
	}
	if gate.Evaluations != 0 {
		t.Fatal("threshold check must short-circuit the model (Algorithm 2 line 1)")
	}
}

func TestCanaryGateVetoesUnderCongestion(t *testing.T) {
	m := gateMachine()
	gate := NewCanary(m)
	bg := m.NewBackground()
	alloc, _ := m.Alloc.Alloc(4)
	netJob := job(0, 4, 100)
	p, _ := apps.ByName("Laghos")
	netJob.App = p

	if !gate.Allow(netJob, alloc) {
		t.Fatal("canary vetoed on a calm machine")
	}
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.2}})
	if gate.Allow(netJob, alloc) {
		t.Fatal("canary allowed on a saturated machine")
	}
	if gate.Evaluations != 2 || gate.Vetoes != 1 {
		t.Fatalf("canary counters wrong: %d/%d", gate.Evaluations, gate.Vetoes)
	}
}

func TestCanaryGateSkipsComputeJobs(t *testing.T) {
	m := gateMachine()
	gate := NewCanary(m)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.2}})
	alloc, _ := m.Alloc.Alloc(4)
	computeJob := job(0, 4, 100)
	p, _ := apps.ByName("Kripke")
	computeJob.App = p
	if !gate.Allow(computeJob, alloc) {
		t.Fatal("canary should not gate compute-intensive jobs")
	}
	if gate.Evaluations != 0 {
		t.Fatal("compute jobs should skip the probe entirely")
	}
}

func TestCanaryGateHonorsSkipThreshold(t *testing.T) {
	m := gateMachine()
	gate := NewCanary(m)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.2}})
	alloc, _ := m.Alloc.Alloc(4)
	j := job(0, 4, 100)
	p, _ := apps.ByName("Laghos")
	j.App = p
	j.Skips = j.SkipLimit()
	if !gate.Allow(j, alloc) {
		t.Fatal("exhausted threshold must force the start")
	}
	if gate.ThresholdOverrides != 1 {
		t.Fatal("override not counted")
	}
}

// dropEverything is a telemetry fault model that loses every sample.
type dropEverything struct{}

func (dropEverything) Dropped(string, cluster.NodeID, int64) bool    { return true }
func (dropEverything) SampleTick(_ cluster.NodeID, tick int64) int64 { return tick }

func TestRUSHGateFailsOpenOnModelOutage(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	gate.ModelDown = func() bool { return true }
	bg := m.NewBackground()
	// Saturate the pod: a reachable model would veto here.
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.15}})
	m.Eng.RunUntil(m.Eng.Now() + 400)

	alloc, _ := m.Alloc.Alloc(4)
	for i := 0; i < 5; i++ {
		if !gate.Allow(job(i, 4, 100), alloc) {
			t.Fatal("a down model must fail open, never veto")
		}
	}
	if gate.Evaluations != 0 {
		t.Fatalf("down model must not be evaluated, evals=%d", gate.Evaluations)
	}
	if gate.Degraded != 5 {
		t.Fatalf("degraded = %d, want 5", gate.Degraded)
	}
	if gate.Breaker.Trips != 1 {
		t.Fatalf("trips = %d, want 1 (threshold %d)", gate.Breaker.Trips, breakerFailureThreshold)
	}
	m.Eng.RunUntil(m.Eng.Now() + 50)
	if gate.DegradedTime() <= 0 {
		t.Fatal("degraded time must accumulate while the breaker is open")
	}
}

func TestRUSHGateRecoversWhenModelReturns(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	down := true
	gate.ModelDown = func() bool { return down }
	alloc, _ := m.Alloc.Alloc(4)

	// Trip the breaker while the model is down.
	for i := 0; i < breakerFailureThreshold; i++ {
		gate.Allow(job(i, 4, 100), alloc)
	}
	if gate.Breaker.State(m.Eng.Now()) != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Service restored; after the cool-down the half-open probe succeeds
	// and normal model-gated scheduling resumes.
	down = false
	m.Eng.RunUntil(m.Eng.Now() + breakerOpenDuration + 1)
	gate.Allow(job(10, 4, 100), alloc)
	if gate.Evaluations != 1 {
		t.Fatalf("half-open probe should evaluate the model, evals=%d", gate.Evaluations)
	}
	if gate.Breaker.State(m.Eng.Now()) != BreakerClosed {
		t.Fatal("successful probe must close the breaker")
	}
}

func TestRUSHGateFailsOpenOnStaleTelemetry(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.15}})
	m.Eng.RunUntil(m.Eng.Now() + 400)
	// Every sample lost: freshness is +Inf, which exceeds any MaxStaleness.
	m.Sampler.SetFaults(dropEverything{})

	alloc, _ := m.Alloc.Alloc(4)
	if !gate.Allow(job(0, 4, 100), alloc) {
		t.Fatal("stale telemetry must fail open")
	}
	if gate.Evaluations != 0 || gate.Degraded != 1 {
		t.Fatalf("evals=%d degraded=%d", gate.Evaluations, gate.Degraded)
	}
}

func TestRUSHGateFailsOpenOnMissingFeatures(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	gate.MaxStaleness = 0 // isolate the missing-fraction check
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.15}})
	m.Eng.RunUntil(m.Eng.Now() + 400)
	m.Sampler.SetFaults(dropEverything{})

	alloc, _ := m.Alloc.Alloc(4)
	if !gate.Allow(job(0, 4, 100), alloc) {
		t.Fatal("an all-NaN feature vector must fail open")
	}
	if gate.Degraded != 1 {
		t.Fatalf("degraded = %d", gate.Degraded)
	}
}
