package sched

import (
	"math"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/sim"
)

// newSched is the test-local positional constructor over the Config API
// (the deprecated sched.New shim is gone); it panics on the nil-machine
// error so the many tests that build a scheduler mid-assertion stay
// one-liners.
func newSched(m *machine.Machine, r1, r2 Policy, gate Gate) *Scheduler {
	s, err := NewScheduler(Config{Machine: m, Primary: r1, Backfill: r2, Gate: gate})
	if err != nil {
		panic(err)
	}
	return s
}

func testMachine(nodes int) *machine.Machine {
	eng := sim.New(1)
	m, err := machine.New(eng, cluster.Topology{Nodes: nodes, PodSize: nodes, CoresPerNode: 4})
	if err != nil {
		panic(err)
	}
	return m
}

func steadyApp() apps.Profile {
	return apps.Profile{
		Name: "steady", Class: apps.ComputeIntensive,
		Base16: 100, NetPerNode: 0.001, FSPerNode: 0,
		NetSens: 0, FSSens: 0, Jitter: 1e-9,
	}
}

func job(id, nodes int, work float64) *Job {
	return &Job{ID: id, App: steadyApp(), Nodes: nodes, BaseWork: work, Estimate: work * 1.2}
}

func TestFCFSRunsInOrderWhenSerial(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	var order []int
	s.OnComplete = func(j *Job) { order = append(order, j.ID) }
	// All jobs need the whole machine: strictly serial execution.
	for i := 0; i < 4; i++ {
		s.Submit(job(i, 16, 50))
	}
	m.Eng.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d jobs", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("FCFS order broken: %v", order)
		}
	}
}

func TestParallelJobsSharedMachine(t *testing.T) {
	m := testMachine(64)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	for i := 0; i < 4; i++ {
		s.Submit(job(i, 16, 100))
	}
	if s.RunningLen() != 4 {
		t.Fatalf("all 4 jobs fit, running = %d", s.RunningLen())
	}
	m.Eng.Run()
	if len(s.Completed()) != 4 {
		t.Fatal("jobs lost")
	}
	// All ran concurrently: every wait time is 0.
	for _, j := range s.Completed() {
		if j.WaitTime() != 0 {
			t.Fatalf("job %d waited %v", j.ID, j.WaitTime())
		}
	}
}

func TestEASYBackfillsShortJob(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	// Job 0 occupies 10 nodes for 100s. Job 1 wants 16 (must wait).
	// Job 2 wants 4 nodes for 20s: backfills into the 6 free nodes since
	// it finishes (est 24s) before job 0's estimated end (120s).
	s.Submit(job(0, 10, 100))
	s.Submit(job(1, 16, 50))
	s.Submit(job(2, 4, 20))
	if s.RunningLen() != 2 {
		t.Fatalf("backfill failed: running = %d", s.RunningLen())
	}
	m.Eng.Run()
	byID := map[int]*Job{}
	for _, j := range s.Completed() {
		byID[j.ID] = j
	}
	if byID[2].StartTime != 0 {
		t.Fatalf("job 2 should backfill at t=0, started %v", byID[2].StartTime)
	}
	if byID[1].StartTime < 99 {
		t.Fatalf("job 1 started too early: %v", byID[1].StartTime)
	}
}

func TestEASYNeverDelaysReservation(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	// Job 0: 10 nodes, 100s (est 120). Job 1: 16 nodes reservation at
	// ~120. Job 2: 6 nodes for 200s (est 240) would push job 1 past its
	// reservation — EASY must NOT backfill it even though nodes are free.
	s.Submit(job(0, 10, 100))
	s.Submit(job(1, 16, 50))
	long := job(2, 6, 200)
	s.Submit(long)
	if !math.IsNaN(long.StartTime) {
		t.Fatal("long job must not backfill past the reservation")
	}
	m.Eng.Run()
	byID := map[int]*Job{}
	for _, j := range s.Completed() {
		byID[j.ID] = j
	}
	// Job 1 starts when job 0 finishes (~100), not after the long job.
	if byID[1].StartTime > 110 {
		t.Fatalf("reservation delayed: job 1 started at %v", byID[1].StartTime)
	}
}

func TestEASYExtraNodesRouteAllowsLongBackfill(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	// Job 0: 10 nodes 100s. Job 1: wants 12 nodes -> shadow at job 0's
	// end, extra = 6+10-12 = 4 nodes. Job 2: 4 nodes, very long — fits
	// the extra-nodes route and may run indefinitely without delaying
	// job 1.
	s.Submit(job(0, 10, 100))
	s.Submit(job(1, 12, 50))
	long := job(2, 4, 500)
	s.Submit(long)
	if math.IsNaN(long.StartTime) {
		t.Fatal("4-node job fits the extra-node window and should backfill")
	}
	m.Eng.Run()
	byID := map[int]*Job{}
	for _, j := range s.Completed() {
		byID[j.ID] = j
	}
	if byID[1].StartTime > 110 {
		t.Fatalf("extra-route backfill delayed the reservation: job 1 at %v", byID[1].StartTime)
	}
}

func TestSJFOrdersByEstimate(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, SJF{}, SJF{}, AlwaysStart{})
	// Submit three whole-machine jobs at t=0 in descending length; SJF
	// should run them shortest first. Fill the machine first so nothing
	// starts during submission.
	blocker := job(99, 16, 10)
	s.Submit(blocker)
	s.Submit(job(0, 16, 300))
	s.Submit(job(1, 16, 100))
	s.Submit(job(2, 16, 200))
	var order []int
	s.OnComplete = func(j *Job) {
		if j.ID != 99 {
			order = append(order, j.ID)
		}
	}
	m.Eng.Run()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SJF order = %v, want %v", order, want)
		}
	}
}

// countGate vetoes the first N attempts of every job.
type countGate struct{ n int }

func (g *countGate) Allow(j *Job, _ cluster.Allocation) bool {
	if j.Skips >= j.SkipLimit() {
		return true
	}
	return j.Skips >= g.n
}
func (g *countGate) Name() string { return "count" }

func TestGateVetoKeepsJobQueued(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, &countGate{n: 2})
	s.RetryInterval = 10
	s.VetoCooldown = 10
	j := job(0, 16, 50)
	s.Submit(j)
	if !math.IsNaN(j.StartTime) {
		t.Fatal("vetoed job must not start")
	}
	if j.Skips != 1 {
		t.Fatalf("skips = %d, want 1", j.Skips)
	}
	if s.QueueLen() != 1 {
		t.Fatal("vetoed job must remain queued")
	}
	m.Eng.Run()
	if len(s.Completed()) != 1 {
		t.Fatal("vetoed job never ran")
	}
	if j.Skips != 2 {
		t.Fatalf("skips = %d, want 2", j.Skips)
	}
	// Started via retry timer: at ~2 * RetryInterval.
	if j.StartTime < 10 || j.StartTime > 40 {
		t.Fatalf("vetoed job started at %v", j.StartTime)
	}
}

func TestVetoedJobKeepsPriority(t *testing.T) {
	m := testMachine(16)
	g := &countGate{n: 1}
	s := newSched(m, FCFS{}, FCFS{}, g)
	s.RetryInterval = 5
	s.VetoCooldown = 5
	// Job 0 vetoed once; job 1 same size submitted right after. On the
	// retry pass, job 0 must still be ahead of job 1 (it kept its
	// position).
	j0 := job(0, 16, 50)
	j1 := job(1, 16, 50)
	s.Submit(j0)
	s.Submit(j1) // j1's first attempt is also vetoed (skip count 1 each)
	m.Eng.Run()
	if !(j0.StartTime < j1.StartTime) {
		t.Fatalf("vetoed job lost its position: j0 at %v, j1 at %v", j0.StartTime, j1.StartTime)
	}
}

// alwaysVeto vetoes until the skip threshold forces the start.
type alwaysVeto struct{}

func (alwaysVeto) Allow(j *Job, _ cluster.Allocation) bool { return j.Skips >= j.SkipLimit() }
func (alwaysVeto) Name() string                            { return "alwaysVeto" }

func TestSkipThresholdForcesStart(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, alwaysVeto{})
	s.RetryInterval = 1
	s.VetoCooldown = 1
	j := job(0, 16, 20)
	j.SkipThreshold = 3
	s.Submit(j)
	m.Eng.Run()
	if len(s.Completed()) != 1 {
		t.Fatal("job starved despite skip threshold")
	}
	if j.Skips != 3 {
		t.Fatalf("skips = %d, want exactly the threshold", j.Skips)
	}
}

func TestSkipsDefaultThreshold(t *testing.T) {
	j := &Job{}
	if j.SkipLimit() != DefaultSkipThreshold {
		t.Fatalf("default skip limit = %d", j.SkipLimit())
	}
	j.SkipThreshold = 4
	if j.SkipLimit() != 4 {
		t.Fatalf("explicit skip limit = %d", j.SkipLimit())
	}
}

func TestSubmitValidation(t *testing.T) {
	m := testMachine(8)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	if err := s.Submit(job(0, 9, 10)); err == nil {
		t.Fatal("oversized job should be rejected")
	}
	if err := s.Submit(job(1, 0, 10)); err == nil {
		t.Fatal("zero-node job should be rejected")
	}
	// Work the machine could never finish, and an estimate the maintained
	// orders could never place, are errors at the door, not panics inside
	// an event callback.
	for _, bad := range []struct {
		name           string
		work, estimate float64
	}{
		{"infinite work", math.Inf(1), 10},
		{"NaN work", math.NaN(), 10},
		{"zero work", 0, 10},
		{"negative work", -5, 10},
		{"NaN estimate", 10, math.NaN()},
		{"infinite estimate", 10, math.Inf(1)},
		{"negative infinite estimate", 10, math.Inf(-1)},
	} {
		j := &Job{ID: 9, App: steadyApp(), Nodes: 4, BaseWork: bad.work, Estimate: bad.estimate}
		if err := s.Submit(j); err == nil {
			t.Fatalf("%s should be rejected", bad.name)
		}
	}
	if s.QueueLen() != 0 {
		t.Fatalf("rejected jobs must not be enqueued, queue=%d", s.QueueLen())
	}
	if err := s.Submit(job(2, 8, 10)); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

func TestEstimateDefaultsToBaseWork(t *testing.T) {
	m := testMachine(8)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	j := &Job{ID: 0, App: steadyApp(), Nodes: 4, BaseWork: 30}
	s.Submit(j)
	if j.Estimate != 30 {
		t.Fatalf("estimate = %v", j.Estimate)
	}
	m.Eng.Run()
}

func TestNoiseJobBlocksReservationGracefully(t *testing.T) {
	// A permanent noise allocation holds 4 of 16 nodes; a 16-node job
	// can never run, but smaller jobs must keep flowing (reservation at
	// infinity → free backfilling).
	m := testMachine(16)
	nz, err := m.StartNoise(apps.Noise{NodeFraction: 0.25, MinPhase: 10, MaxPhase: 20, MaxLoad: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	impossible := job(0, 16, 10)
	s.Submit(impossible)
	small := job(1, 4, 10)
	s.Submit(small)
	if math.IsNaN(small.StartTime) {
		t.Fatal("small job should backfill around the impossible pivot")
	}
	m.Eng.RunUntil(100)
	nz.Stop()
	m.Eng.RunUntil(200)
	if math.IsNaN(impossible.StartTime) {
		t.Fatal("pivot should start once the noise job releases its nodes")
	}
}

func TestWaitAndRunTimes(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	s.Submit(job(0, 16, 100))
	s.Submit(job(1, 16, 50))
	m.Eng.Run()
	byID := map[int]*Job{}
	for _, j := range s.Completed() {
		byID[j.ID] = j
	}
	if w := byID[0].WaitTime(); w != 0 {
		t.Fatalf("job 0 wait = %v", w)
	}
	if w := byID[1].WaitTime(); math.Abs(w-100) > 1 {
		t.Fatalf("job 1 wait = %v, want ~100", w)
	}
	if r := byID[0].RunTime(); math.Abs(r-100) > 1 {
		t.Fatalf("job 0 run = %v", r)
	}
}

func TestManyJobsDrainCompletely(t *testing.T) {
	m := testMachine(64)
	s := newSched(m, FCFS{}, SJF{}, AlwaysStart{})
	rng := sim.NewSource(3).Derive("wl")
	n := 60
	for i := 0; i < n; i++ {
		nodes := []int{4, 8, 16}[rng.Intn(3)]
		work := rng.Uniform(20, 200)
		jb := &Job{ID: i, App: steadyApp(), Nodes: nodes, BaseWork: work, Estimate: work * 1.4}
		delay := rng.Uniform(0, 300)
		m.Eng.At(delay, func() { s.Submit(jb) })
	}
	m.Eng.Run()
	if len(s.Completed()) != n {
		t.Fatalf("completed %d of %d jobs", len(s.Completed()), n)
	}
	if s.QueueLen() != 0 || s.RunningLen() != 0 {
		t.Fatal("scheduler not drained")
	}
	if m.Alloc.UsedCount() != 0 {
		t.Fatal("nodes leaked")
	}
	for _, j := range s.Completed() {
		if math.IsNaN(j.StartTime) || j.StartTime < j.SubmitTime || j.EndTime <= j.StartTime {
			t.Fatalf("job %d has inconsistent times: %+v", j.ID, j)
		}
	}
}

func TestPolicyAndGateNames(t *testing.T) {
	if (FCFS{}).Name() != "FCFS" || (SJF{}).Name() != "SJF" {
		t.Fatal("policy names wrong")
	}
	if (AlwaysStart{}).Name() != "FCFS+EASY" {
		t.Fatal("baseline gate name wrong")
	}
	m := testMachine(8)
	if NewRUSH(m, nil).Name() != "RUSH" || NewCanary(m).Name() != "Canary" {
		t.Fatal("gate names wrong")
	}
	s := newSched(m, FCFS{}, SJF{}, AlwaysStart{})
	if s.gt.Name() != "FCFS+EASY" {
		t.Fatal("scheduler gate name wrong")
	}
	if s.Machine() != m {
		t.Fatal("machine accessor wrong")
	}
}

func TestFCFSTieBreaksOnID(t *testing.T) {
	a := &Job{ID: 2, SubmitTime: 5}
	b := &Job{ID: 1, SubmitTime: 5}
	if !(FCFS{}).Less(b, a) || (FCFS{}).Less(a, b) {
		t.Fatal("FCFS should tie-break on ID")
	}
	c := &Job{ID: 9, Estimate: 10}
	d := &Job{ID: 3, Estimate: 10}
	if !(SJF{}).Less(d, c) {
		t.Fatal("SJF should tie-break on ID")
	}
}

func TestVetoCooldownDisabled(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, &countGate{n: 1})
	s.VetoCooldown = 0 // disabled: every pass may re-ask
	s.RetryInterval = 5
	j := job(0, 16, 20)
	s.Submit(j)
	m.Eng.Run()
	if len(s.Completed()) != 1 {
		t.Fatal("job never ran")
	}
}
