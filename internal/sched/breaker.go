package sched

import "rush/internal/obs"

// BreakerState is a circuit-breaker phase.
type BreakerState int

const (
	// BreakerClosed: the predictor is healthy; calls flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures tripped the breaker; the gate
	// fails open to plain EASY backfilling for breakerOpenDuration.
	BreakerOpen
	// BreakerHalfOpen: the cool-down elapsed; the next decision probes
	// the predictor once — success closes the breaker, failure re-opens.
	BreakerHalfOpen
)

// String returns the state name for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is the predictor circuit breaker backing RUSH's degraded mode:
// when the model path fails repeatedly (outage, stale telemetry, too
// many missing features), the breaker opens and the gate stops asking —
// failing open so scheduling degrades to the FCFS+EASY baseline instead
// of stalling the queue. Three consecutive failures open it; after 300
// simulated seconds it half-opens and lets a single decision probe the
// model again. The zero value is a closed breaker.
type Breaker struct {
	// Trips counts closed->open transitions.
	Trips int

	state     BreakerState
	failures  int
	openedAt  float64
	downSince float64
	downTotal float64
	isDown    bool

	obs    *obs.Observer
	cTrips *obs.Counter
	cTrans *obs.Counter
	gState *obs.Gauge
}

const (
	// breakerFailureThreshold is how many consecutive failures trip the
	// breaker.
	breakerFailureThreshold = 3
	// breakerOpenDuration is how long the breaker stays open before
	// probing again, in simulated seconds.
	breakerOpenDuration float64 = 300
)

// Observe attaches an observer: every state transition (including the
// implicit open -> half-open advance inside State) emits exactly one
// breaker trace event, and trip/transition counters plus a breaker_state
// gauge (0 closed, 1 open, 2 half-open) are maintained in the metrics
// registry.
func (b *Breaker) Observe(o *obs.Observer) {
	b.obs = o
	reg := o.Metrics()
	b.cTrips = reg.Counter("breaker_trips_total")
	b.cTrans = reg.Counter("breaker_transitions_total")
	b.gState = reg.Gauge("breaker_state")
	b.gState.Set(float64(b.state))
}

// transition moves the breaker to state to, emitting one trace event per
// actual state change. All state writes go through here so a transition
// can never be observed twice (or silently skipped).
func (b *Breaker) transition(now float64, to BreakerState) {
	from := b.state
	b.state = to
	if from == to {
		return
	}
	b.cTrans.Inc()
	b.gState.Set(float64(to))
	if b.obs != nil {
		b.obs.Emit(obs.Event{Time: now, Kind: obs.KindBreaker, From: from.String(), To: to.String()})
	}
}

// State returns the breaker phase at time now, advancing open ->
// half-open when the cool-down has elapsed.
func (b *Breaker) State(now float64) BreakerState {
	if b.state == BreakerOpen && now-b.openedAt >= breakerOpenDuration {
		b.transition(now, BreakerHalfOpen)
	}
	return b.state
}

// Ready reports whether the model path may be attempted at time now. In
// the open state it returns false (the caller must fail open); in the
// half-open state it returns true so one decision probes the model.
func (b *Breaker) Ready(now float64) bool {
	return b.State(now) != BreakerOpen
}

// Success records a healthy model decision, closing the breaker.
func (b *Breaker) Success(now float64) {
	b.failures = 0
	b.transition(now, BreakerClosed)
	if b.isDown {
		b.downTotal += now - b.downSince
		b.isDown = false
	}
}

// Failure records a failed model decision. breakerFailureThreshold
// consecutive failures, or any failure while half-open, trip the breaker.
func (b *Breaker) Failure(now float64) {
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= breakerFailureThreshold {
		if b.state != BreakerOpen {
			b.Trips++
			b.cTrips.Inc()
		}
		b.transition(now, BreakerOpen)
		b.openedAt = now
		if !b.isDown {
			b.downSince = now
			b.isDown = true
		}
		b.failures = 0
	}
}

// DegradedTime returns the total simulated seconds the breaker has been
// open (including a currently open interval up to now) — the time the
// scheduler ran in degraded baseline mode.
func (b *Breaker) DegradedTime(now float64) float64 {
	t := b.downTotal
	if b.isDown {
		t += now - b.downSince
	}
	return t
}
