package sched

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rush/internal/obs"
)

// blockedScheduler builds the steady state the zero-alloc contract is
// about: a full machine with a backlog, so Pass sorts the queue,
// computes the EASY reservation, and scans backfill candidates without
// being able to start anything.
func blockedScheduler() *Scheduler {
	m := testMachine(16)
	s, err := NewScheduler(Config{Machine: m})
	if err != nil {
		panic(err)
	}
	s.Submit(job(0, 16, 1e6)) // starts immediately, holds every node
	for i := 1; i <= 4; i++ {
		s.Submit(job(i, 4*i, 100)) // queued behind the blocker
	}
	return s
}

// TestPassZeroAllocs pins the observability contract for the disabled
// case: with a nil observer, a full scheduling pass performs zero heap
// allocations. This is what makes leaving the hooks compiled-in free.
func TestPassZeroAllocs(t *testing.T) {
	s := blockedScheduler()
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Pass(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Pass allocated %.1f times per run with a nil observer; want 0", allocs)
	}
}

// TestGatedPassZeroAllocs extends the contract to a RUSH-gated
// scheduler with a trained model, fully loaded with a blocker plus a
// backlog: a pass still performs zero heap allocations.
func TestGatedPassZeroAllocs(t *testing.T) {
	m := gateMachine()
	s, err := NewScheduler(Config{Machine: m, Gate: NewRUSH(m, trainedToyModel(t, m))})
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
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Pass(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Pass on a RUSH-gated scheduler allocated %.1f times per run; want 0", allocs)
	}
}

// TestBreakerTransitionsEmitOneEventEach drives the breaker around its
// full cycle — closed -> open (Failure), open -> half-open (State after
// the cool-down), half-open -> closed (Success) — and checks each
// transition emits exactly one trace event, and non-transitions none.
func TestBreakerTransitionsEmitOneEventEach(t *testing.T) {
	var buf bytes.Buffer
	br := &Breaker{}
	tracer := obs.NewBatchedTracer(&buf)
	br.Observe(obs.New(tracer, nil))

	for i := 0; i < breakerFailureThreshold; i++ {
		br.Failure(float64(i)) // only the threshold-reaching failure transitions
	}
	if br.State(1) != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	probeAt := 2 + breakerOpenDuration
	if br.State(probeAt) != BreakerHalfOpen {
		t.Fatal("breaker did not half-open after the cool-down")
	}
	br.Success(probeAt + 1)
	br.Success(probeAt + 2) // already closed: must not emit
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	want := [][2]string{
		{"closed", "open"},
		{"open", "half-open"},
		{"half-open", "closed"},
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d breaker events, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		var ev struct {
			Kind string `json:"kind"`
			From string `json:"from"`
			To   string `json:"to"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev.Kind != string(obs.KindBreaker) || ev.From != want[i][0] || ev.To != want[i][1] {
			t.Fatalf("event %d = %s %s->%s, want breaker %s->%s",
				i, ev.Kind, ev.From, ev.To, want[i][0], want[i][1])
		}
	}
	if br.Trips != 1 {
		t.Fatalf("Trips = %d, want 1", br.Trips)
	}
}

// TestNewSchedulerDefaults checks the Config constructor's contract:
// nil Machine is an error, and every omitted field gets its documented
// baseline default.
func TestNewSchedulerDefaults(t *testing.T) {
	if _, err := NewScheduler(Config{}); err == nil {
		t.Fatal("NewScheduler accepted a nil Machine")
	}
	s, err := NewScheduler(Config{Machine: testMachine(16)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.gt.Name(); got != (AlwaysStart{}).Name() {
		t.Fatalf("default gate = %q", got)
	}
	if got := s.r1.Name(); got != (FCFS{}).Name() {
		t.Fatalf("default queue order = %q", got)
	}
	if s.retryInterval != 30 || s.vetoCooldown != 30 || s.requeueBackoff != 60 || s.maxRequeueBackoff != 900 {
		t.Fatalf("default timers = %v %v %v %v",
			s.retryInterval, s.vetoCooldown, s.requeueBackoff, s.maxRequeueBackoff)
	}
	if s.Observer() != nil {
		t.Fatal("observer should default to nil (disabled)")
	}
}

// TestConfigConstructionDeterministic runs the same workload through two
// independently constructed Config schedulers and requires identical
// schedules (the old positional-shim equivalence test, kept as a
// construction-determinism pin now that the shim is removed).
func TestConfigConstructionDeterministic(t *testing.T) {
	run := func(s *Scheduler) []float64 {
		for i := 0; i < 6; i++ {
			if err := s.Submit(job(i, 8+4*(i%3), 50+10*float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		s.Machine().Eng.Run()
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		var starts []float64
		for _, j := range s.completed {
			starts = append(starts, j.StartTime)
		}
		return starts
	}
	a := run(newSched(testMachine(32), SJF{}, AlwaysStart{}))
	sc, err := NewScheduler(Config{Machine: testMachine(32), Primary: SJF{}, Gate: AlwaysStart{}})
	if err != nil {
		t.Fatal(err)
	}
	b := run(sc)
	if len(a) != 6 || len(a) != len(b) {
		t.Fatalf("completions differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("start times diverge at %d: %v vs %v", i, a, b)
		}
	}
}
