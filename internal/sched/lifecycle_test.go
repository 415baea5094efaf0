package sched

import (
	"testing"

	"rush/internal/obs"
)

// TestBreakerStateGaugeTracksRecovery pins the breaker_state gauge
// through a full predictor outage: closed (0) while healthy, open (1)
// after the outage trips the breaker, half-open (2) when the cool-down
// elapses, and closed (0) again once the probe succeeds — the recovery
// path the lifecycle dashboards alert on.
func TestBreakerStateGaugeTracksRecovery(t *testing.T) {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	reg := obs.NewRegistry()
	gate.Observe(obs.New(nil, reg))
	down := true
	gate.ModelDown = func() bool { return down }
	alloc, _ := m.Alloc.Alloc(4)

	gauge := func() float64 {
		for _, mv := range reg.Snapshot().Gauges {
			if mv.Name == "breaker_state" {
				return mv.Value
			}
		}
		t.Fatal("breaker_state gauge not registered")
		return -1
	}

	if gauge() != float64(BreakerClosed) {
		t.Fatalf("initial gauge = %v, want closed", gauge())
	}
	// Predictor outage: consecutive failures trip the breaker.
	for i := 0; i < gate.Breaker.FailureThreshold; i++ {
		gate.Allow(job(i, 4, 100), alloc)
	}
	if gauge() != float64(BreakerOpen) {
		t.Fatalf("gauge after outage = %v, want open", gauge())
	}
	// Outage ends; after the cool-down the state query itself advances
	// the breaker to half-open, and the next decision probes the model.
	down = false
	m.Eng.RunUntil(m.Eng.Now() + gate.Breaker.OpenDuration + 1)
	if st := gate.Breaker.State(m.Eng.Now()); st != BreakerHalfOpen {
		t.Fatalf("state after cool-down = %v, want half-open", st)
	}
	if gauge() != float64(BreakerHalfOpen) {
		t.Fatalf("gauge after cool-down = %v, want half-open", gauge())
	}
	gate.Allow(job(10, 4, 100), alloc)
	if gauge() != float64(BreakerClosed) {
		t.Fatalf("gauge after recovery = %v, want closed", gauge())
	}
	if gate.Breaker.State(m.Eng.Now()) != BreakerClosed {
		t.Fatal("breaker must re-close after the outage ends")
	}
}

// nilHookScheduler builds the lifecycle zero-overhead steady state: a
// RUSH-gated scheduler whose DecisionHook is nil, fully loaded with a
// blocker plus a backlog so every pass sorts the queue, computes the
// EASY reservation, and scans backfill candidates.
func nilHookScheduler(t *testing.T) *Scheduler {
	m := gateMachine()
	model := trainedToyModel(t, m)
	gate := NewRUSH(m, model)
	s, err := NewScheduler(Config{Machine: m, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(job(0, m.Topo.Nodes, 1e6)) // holds every node once started
	if err := s.Pass(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		s.Submit(job(i, 4*i, 100)) // queued behind the blocker
	}
	return s
}

// TestPassNilLifecycleZeroAllocs pins the lifecycle cost contract: with
// the lifecycle disabled (nil gate hook), a full scheduling pass on a
// RUSH-gated scheduler performs zero heap allocations — compiling the
// hook in costs one pointer check per decision and nothing else.
func TestPassNilLifecycleZeroAllocs(t *testing.T) {
	s := nilHookScheduler(t)
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Pass(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Pass with a nil lifecycle hook allocated %.1f times per run; want 0", allocs)
	}
}
