package sched

import (
	"math"
	"testing"

	"rush/internal/obs"
	"rush/internal/sim"
)

// TestEASYNeverDelaysHeadReservationProperty checks EASY's guarantee on
// random streams: once a job heads the queue it has a reservation (the
// shadow time of the timeline walk), and with every estimate at or above
// the job's work no backfill may push its start past that time. After
// every pass the test records the head's shadow the first time that job
// heads the queue, and at the end requires each recorded job to have
// started no later than it. It runs under the timeline pass and under
// the reference scanner; FCFS, no gate, no faults and the steady app keep
// estimates honest upper bounds on the run time.
func TestEASYNeverDelaysHeadReservationProperty(t *testing.T) {
	for _, reference := range []bool{false, true} {
		checked, backfilled := 0, uint64(0)
		for seed := int64(1); seed <= 20; seed++ {
			rng := sim.NewSource(seed).Derive("easy-shadow")
			nodes := 16 << rng.Intn(3)
			m := testMachine(nodes)
			reg := obs.NewRegistry()
			s, err := NewScheduler(Config{Machine: m, Observer: obs.New(nil, reg)})
			if err != nil {
				t.Fatal(err)
			}
			body := s.passFast
			if reference {
				body = useReference(s).pass
			}
			shadowOf := map[*Job]float64{}
			s.passBody = func() {
				body()
				if len(s.queue) == 0 {
					return
				}
				head := s.queue[0]
				if _, seen := shadowOf[head]; !seen {
					now := m.Eng.Now()
					s.tl.promote(now)
					shadowOf[head], _ = s.tl.reservation(head.Nodes, m.Alloc.FreeCount(), now)
				}
			}
			n := 60 + rng.Intn(90)
			for i := 0; i < n; i++ {
				work := rng.Uniform(10, 250)
				j := &Job{ID: i, App: steadyApp(), Nodes: 1 + rng.Intn(nodes), BaseWork: work, Estimate: work * rng.Uniform(1.01, 2)}
				m.Eng.At(rng.Uniform(0, 900), func() { s.Submit(j) })
			}
			m.Eng.Run()
			if err := s.Err(); err != nil || s.CompletedCount() != n {
				t.Fatalf("reference=%v seed %d: %d/%d jobs done, err %v", reference, seed, s.CompletedCount(), n, err)
			}
			for j, shadow := range shadowOf {
				if j.StartTime > shadow {
					t.Fatalf("reference=%v seed %d: job %d headed the queue with its reservation at %v but started at %v",
						reference, seed, j.ID, shadow, j.StartTime)
				}
			}
			checked += len(shadowOf)
			backfilled += counter(reg.Snapshot(), "sched_jobs_backfilled_total")
		}
		if checked < 200 || backfilled < 200 {
			t.Fatalf("reference=%v: degenerate streams: %d reservations checked, %d backfills", reference, checked, backfilled)
		}
		t.Logf("reference=%v: %d reservations checked, %d backfills", reference, checked, backfilled)
	}
}

func TestNeverDelayJobIgnoresGate(t *testing.T) {
	m := testMachine(16)
	s := newSched(m, FCFS{}, alwaysVeto{})
	j := job(0, 16, 20)
	j.SkipThreshold = -1 // priority job: the gate may never delay it
	s.Submit(j)
	if math.IsNaN(j.StartTime) {
		t.Fatal("never-delay job should start immediately")
	}
	if j.Skips != 0 {
		t.Fatalf("never-delay job accumulated %d skips", j.Skips)
	}
	m.Eng.Run()
}
