package machine

import (
	"fmt"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// heavyProfile feels every contention dimension and emits enough load
// to move contention factors around the threshold when stacked.
func heavyProfile() apps.Profile {
	return apps.Profile{
		Name: "heavy", Class: apps.IOIntensive,
		Base16: 100, StrongExp: 1, WeakExp: 0,
		NetPerNode: 1.2, FSPerNode: 0.004,
		NetSens: 0.8, FSSens: 0.6, Jitter: 0.05,
	}
}

// runScenario drives one deterministic multi-pod workload — staggered
// job starts across pods, a noise job, an ambient load swing that
// crosses the filesystem threshold, and a node failure — and returns
// every job's (EndTime, Killed) keyed by completion order.
func runScenario(t *testing.T, topo cluster.Topology, seed int64, configure func(*Machine)) []string {
	t.Helper()
	eng := sim.New(seed)
	m, err := New(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	configure(m)
	var log []string
	record := func(rj *RunningJob) {
		log = append(log, fmt.Sprintf("%d killed=%v end=%x", rj.ID, rj.Killed, rj.EndTime))
	}
	if _, err := m.StartNoise(apps.Noise{NodeFraction: 0.05, MaxLoad: 0.9, FSFraction: 0.3, MinPhase: 30, MaxPhase: 120}); err != nil {
		t.Fatal(err)
	}
	bg := m.NewBackground()
	// Staggered starts: a batch every 40s, alternating profiles and
	// sizes so single-pod and cross-pod lanes both populate.
	for batch := 0; batch < 6; batch++ {
		batch := batch
		eng.At(float64(batch)*40, func() {
			for j := 0; j < 8; j++ {
				n := 8
				if j%3 == 0 {
					n = topo.PodSize + 8 // forced cross-pod
				}
				if n > topo.Nodes/2 {
					n = topo.Nodes / 4
				}
				alloc, err := m.Alloc.Alloc(n)
				if err != nil {
					continue // machine full; deterministic either way
				}
				p := heavyProfile()
				if j%2 == 0 {
					p.FSPerNode = 0.008 // push FS over threshold in aggregate
				}
				m.StartJob(p, alloc, 80+10*float64(j), record)
			}
		})
	}
	// Ambient swing across the FS threshold: every running job is
	// affected at once (the machine-wide barrier case).
	eng.At(95, func() { bg.Set(simnet.Contribution{FS: 0.7}) })
	eng.At(155, func() { bg.Set(simnet.Contribution{FS: 0.1}) })
	// Node failure in pod 0 mid-flight.
	eng.At(130, func() {
		if _, err := m.FailNode(3); err != nil {
			t.Errorf("FailNode: %v", err)
		}
	})
	eng.RunUntil(50000)
	if m.Running() != 0 {
		t.Fatalf("%d jobs still running at horizon", m.Running())
	}
	return log
}

// TestShardedMatchesReferenceExecutor is the machine-level differential
// oracle: the dirty-lane fast path must produce bit-identical histories
// (same completions, same kill flags, same EndTime bits) to the serial
// full-recompute reference, across topologies and seeds, with and
// without job pooling.
func TestShardedMatchesReferenceExecutor(t *testing.T) {
	topos := []cluster.Topology{
		cluster.Synthetic(256, 64), // 4 even pods
		cluster.Synthetic(300, 64), // partial last pod
		cluster.Synthetic(1024, 128),
	}
	for _, topo := range topos {
		for seed := int64(1); seed <= 3; seed++ {
			ref := runScenario(t, topo, seed, func(m *Machine) { m.DisableFastPath = true })
			variants := map[string]func(*Machine){
				"fast":        func(m *Machine) {},
				"fast-pooled": func(m *Machine) { m.PoolJobs = true },
			}
			for name, configure := range variants {
				got := runScenario(t, topo, seed, configure)
				if len(got) != len(ref) {
					t.Fatalf("%v seed %d %s: %d completions, reference %d",
						topo, seed, name, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%v seed %d %s: completion %d = %q, reference %q",
							topo, seed, name, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestLaneBookkeeping pins the swap-remove lane structures directly:
// jobs land in the right lane, cross jobs index every touched pod, and
// removal keeps every index consistent.
func TestLaneBookkeeping(t *testing.T) {
	topo := cluster.Synthetic(512, 64)
	eng := sim.New(5)
	m, err := New(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	p := calmProfile()
	var jobs []*RunningJob
	for i := 0; i < 12; i++ {
		n := 8
		if i%4 == 0 {
			n = 100 // spans pods
		}
		alloc, err := m.Alloc.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, m.StartJob(p, alloc, 1000, nil))
	}
	check := func() {
		t.Helper()
		seen := 0
		for pod, lane := range m.lanes {
			for idx, rj := range lane {
				seen++
				if rj.lane != pod || rj.laneIdx != idx || rj.multiPod {
					t.Fatalf("lane %d slot %d inconsistent: lane=%d idx=%d multi=%v",
						pod, idx, rj.lane, rj.laneIdx, rj.multiPod)
				}
			}
		}
		for idx, rj := range m.cross {
			seen++
			if rj.lane != -1 || rj.laneIdx != idx || !rj.multiPod {
				t.Fatalf("cross slot %d inconsistent", idx)
			}
			for i, pod := range rj.pods {
				if m.crossByPod[pod][rj.crossIdx[i]] != rj {
					t.Fatalf("crossByPod[%d][%d] does not point back to job %d", pod, rj.crossIdx[i], rj.ID)
				}
			}
		}
		if seen != m.Running() {
			t.Fatalf("lanes hold %d jobs, Running() = %d", seen, m.Running())
		}
	}
	check()
	// Kill in mixed order to force swap-removes in every structure.
	for _, i := range []int{0, 7, 4, 11, 1, 8} {
		m.kill(jobs[i])
		check()
	}
	eng.Run()
	if m.Running() != 0 {
		t.Fatal("jobs remain after drain")
	}
	check()
}
