package sched

import (
	"math"
	"testing"
)

// A node failure at t=40 kills the only running job; the scheduler must
// requeue it after the backoff, accumulate its queued time across both
// stints, and charge the lost execution to LostWork.
func TestKilledJobRequeuedAccumulatesWait(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	s.RequeueBackoff = 5
	j := job(0, 16, 100)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	m.Eng.Schedule(40, func() {
		if _, err := m.FailNode(0); err != nil {
			t.Errorf("FailNode: %v", err)
		}
	})
	m.Eng.Schedule(41, func() {
		if err := m.RestoreNode(0); err != nil {
			t.Errorf("RestoreNode: %v", err)
		}
	})
	m.Eng.RunUntil(500)

	if j.Retries != 1 {
		t.Fatalf("retries = %d, want 1", j.Retries)
	}
	if math.Abs(j.LostWork-40) > 1e-9 {
		t.Fatalf("lost work = %v, want 40", j.LostWork)
	}
	if j.Failed {
		t.Fatal("job with budget left must not fail")
	}
	if math.IsNaN(j.EndTime) {
		t.Fatal("requeued job never finished")
	}
	// First stint waited 0s (idle machine). The retry re-enters the queue
	// at 45; the machine is already whole again, so the second stint
	// starts immediately: total wait stays the sum of both queued spans.
	wantWait := j.StartTime - 45
	if math.Abs(j.WaitTime()-wantWait) > 1e-9 {
		t.Fatalf("wait = %v, want %v (start=%v)", j.WaitTime(), wantWait, j.StartTime)
	}
	if got := j.RunTime(); math.Abs(got-100) > 1 {
		t.Fatalf("final stint run time = %v, want ~100", got)
	}
}

// Wait accumulation must also count a delayed second stint: after the
// kill, a blocker job occupies the machine, so the requeued job queues
// again for a measurable span.
func TestRequeueWaitSpansBothStints(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	s.RequeueBackoff = 5
	victim := job(0, 16, 100)
	if err := s.Submit(victim); err != nil {
		t.Fatal(err)
	}
	blocker := job(1, 16, 60)
	m.Eng.Schedule(40, func() {
		if _, err := m.FailNode(0); err != nil {
			t.Errorf("FailNode: %v", err)
		}
		if err := m.RestoreNode(0); err != nil {
			t.Errorf("RestoreNode: %v", err)
		}
		// The freed machine starts the blocker before the victim's
		// backoff elapses.
		if err := s.Submit(blocker); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	m.Eng.RunUntil(1000)

	if math.IsNaN(victim.EndTime) || math.IsNaN(blocker.EndTime) {
		t.Fatal("jobs did not drain")
	}
	if blocker.StartTime >= victim.StartTime {
		t.Fatal("blocker should run during the victim's backoff")
	}
	// Victim re-queued at 45, blocker ends near 100: wait2 = start - 45.
	wantWait := victim.StartTime - 45
	if math.Abs(victim.WaitTime()-wantWait) > 1e-9 {
		t.Fatalf("wait = %v, want %v", victim.WaitTime(), wantWait)
	}
	if wantWait < 50 {
		t.Fatalf("second stint should have queued behind the blocker, wait=%v", wantWait)
	}
}

// A job whose retry budget is exhausted completes as Failed so the
// workload still drains.
func TestRetryBudgetExhaustedFailsJob(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	j := job(0, 16, 100)
	j.RetryBudget = -1 // fail on first kill
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	var completed *Job
	s.OnComplete = func(c *Job) { completed = c }
	m.Eng.Schedule(30, func() {
		if _, err := m.FailNode(0); err != nil {
			t.Errorf("FailNode: %v", err)
		}
	})
	m.Eng.RunUntil(200)

	if !j.Failed {
		t.Fatal("job should have failed")
	}
	if completed != j {
		t.Fatal("failed job must still flow through OnComplete")
	}
	if math.Abs(j.EndTime-30) > 1e-9 {
		t.Fatalf("failed job EndTime = %v, want the kill instant", j.EndTime)
	}
	if math.Abs(j.LostWork-30) > 1e-9 {
		t.Fatalf("lost work = %v, want 30", j.LostWork)
	}
	if s.RunningLen() != 0 || s.QueueLen() != 0 {
		t.Fatal("failed job must leave the scheduler entirely")
	}
}

// Requeue backoff grows exponentially with the retry count and is capped.
func TestRequeueBackoffGrowth(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	s.RequeueBackoff = 10
	s.MaxRequeueBackoff = 25
	j := job(0, 16, 1000)
	j.RetryBudget = 5
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// Kill the job shortly after each (re)start.
	kill := func() {
		if _, err := m.FailNode(0); err == nil {
			_ = m.RestoreNode(0)
		}
	}
	m.Eng.Schedule(5, kill)  // retry 1: backoff 10 -> queued at 15
	m.Eng.Schedule(20, kill) // retry 2: backoff 20 -> queued at 40
	m.Eng.Schedule(45, kill) // retry 3: backoff capped 25 -> queued at 70
	m.Eng.RunUntil(80)
	if j.Retries != 3 {
		t.Fatalf("retries = %d, want 3", j.Retries)
	}
	if j.Failed {
		t.Fatal("budget 5 not exhausted")
	}
	// After three kills at 5, 20, 45, the final requeue lands at 70 and
	// (with the machine idle) the job restarts then: wait shows the
	// capped backoff was honored.
	if math.Abs(j.StartTime-70) > 1e-6 {
		t.Fatalf("final start = %v, want 70 (10, 20, then capped 25 backoff)", j.StartTime)
	}
}

// The scheduler has one completion callback and finds the job through
// RunningJob.Owner. With two jobs running on pooled RunningJobs, a node
// failure under one must requeue that job and no other, and the retry —
// which runs on the object the kill returned to the pool — must finish
// as itself.
func TestKillFindsItsJobThroughOwner(t *testing.T) {
	m := testMachine(32)
	m.PoolJobs = true
	s := newSched(m, FCFS{}, FCFS{}, AlwaysStart{})
	s.RequeueBackoff = 5
	var done []int
	s.OnComplete = func(j *Job) { done = append(done, j.ID) }
	bystander, victim := job(0, 16, 100), job(1, 16, 100)
	for _, j := range []*Job{bystander, victim} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.Schedule(40, func() {
		// FCFS packs the bystander onto nodes 0-15, the victim onto 16-31.
		if n, err := m.FailNode(20); err != nil || n != 1 {
			t.Errorf("FailNode killed %d jobs (err %v), want 1", n, err)
		}
		if err := m.RestoreNode(20); err != nil {
			t.Errorf("RestoreNode: %v", err)
		}
	})
	m.Eng.RunUntil(1000)

	if bystander.Retries != 0 || victim.Retries != 1 {
		t.Fatalf("retries: bystander %d, victim %d, want 0 and 1", bystander.Retries, victim.Retries)
	}
	if math.Abs(bystander.EndTime-100) > 1 || math.Abs(victim.RunTime()-100) > 1 || victim.StartTime < 45 {
		t.Fatalf("bystander ended at %v, victim reran %v..%v; want ~100 and a full stint after the backoff",
			bystander.EndTime, victim.StartTime, victim.EndTime)
	}
	if len(done) != 2 || done[0] != 0 || done[1] != 1 {
		t.Fatalf("completion order %v, want [0 1]", done)
	}
}
