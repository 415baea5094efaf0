package sched

import (
	"math"
	"testing"

	"rush/internal/obs"
)

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < breakerFailureThreshold-1; i++ {
		b.Failure(float64(i))
		if !b.Ready(float64(i)) {
			t.Fatalf("breaker open after %d failures", i+1)
		}
	}
	b.Failure(10)
	if b.Ready(10) {
		t.Fatal("breaker must open at the failure threshold")
	}
	if b.Trips != 1 {
		t.Fatalf("trips = %d", b.Trips)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := &Breaker{}
	b.Failure(0)
	b.Failure(1)
	b.Success(2)
	b.Failure(3)
	b.Failure(4)
	if !b.Ready(5) {
		t.Fatal("non-consecutive failures must not trip the breaker")
	}
}

func TestBreakerHalfOpenProbing(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < breakerFailureThreshold; i++ {
		b.Failure(0)
	}
	if b.Ready(breakerOpenDuration / 2) {
		t.Fatal("breaker should stay open during the cool-down")
	}
	// Cool-down elapsed: half-open lets one probe through.
	if !b.Ready(breakerOpenDuration + 1) {
		t.Fatal("breaker should half-open after the cool-down")
	}
	if b.State(breakerOpenDuration+1) != BreakerHalfOpen {
		t.Fatalf("state = %v", b.State(breakerOpenDuration+1))
	}
	// A failed probe re-opens immediately (no threshold in half-open).
	b.Failure(breakerOpenDuration + 2)
	if b.Ready(breakerOpenDuration + 3) {
		t.Fatal("failed probe must re-open the breaker")
	}
	if b.Trips != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips)
	}
	// Next probe succeeds: breaker closes.
	probeAt := 2*breakerOpenDuration + 10
	if !b.Ready(probeAt) {
		t.Fatal("second cool-down should half-open again")
	}
	b.Success(probeAt)
	if b.State(probeAt) != BreakerClosed {
		t.Fatal("success must close the breaker")
	}
}

func TestBreakerDegradedTimeAccounting(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < breakerFailureThreshold; i++ {
		b.Failure(100)
	}
	// Open from t=100; still open at 250.
	if got := b.DegradedTime(250); math.Abs(got-150) > 1e-9 {
		t.Fatalf("degraded time while open = %v, want 150", got)
	}
	// Probe succeeds at 450: the open interval [100, 450] is banked.
	b.Success(450)
	if got := b.DegradedTime(1000); math.Abs(got-350) > 1e-9 {
		t.Fatalf("degraded time after close = %v, want 350", got)
	}
}

// TestBreakerStateGaugeTracksRecovery pins the breaker_state gauge
// through a full predictor outage: closed (0) while healthy, open (1)
// after the outage trips the breaker, half-open (2) when the cool-down
// elapses, and closed (0) again once the probe succeeds.
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
	for i := 0; i < breakerFailureThreshold; i++ {
		gate.Allow(job(i, 4, 100), alloc)
	}
	if gauge() != float64(BreakerOpen) {
		t.Fatalf("gauge after outage = %v, want open", gauge())
	}
	// Outage ends; after the cool-down the state query itself advances
	// the breaker to half-open, and the next decision probes the model.
	down = false
	m.Eng.RunUntil(m.Eng.Now() + breakerOpenDuration + 1)
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
