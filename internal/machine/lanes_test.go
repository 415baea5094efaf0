package machine

import (
	"fmt"
	"math"
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

// doneJob is what a finished or killed job looked like in its onDone
// callback, copied out because a pooled RunningJob is reused afterwards.
type doneJob struct {
	id       int
	profile  apps.Profile
	nodes    []cluster.NodeID
	baseWork float64
	jitter   float64
	start    float64
	end      float64
	killed   bool
}

// scenarioRun is one run of runScenario: every job's (EndTime, Killed)
// in completion order as comparable strings, the jobs themselves, and
// the machine's unpruned load history.
type scenarioRun struct {
	log  []string
	jobs []doneJob
	hist *simnet.History
}

// runScenario drives one deterministic multi-pod workload — staggered
// job starts across pods, a noise job, an ambient load swing that
// crosses the filesystem threshold, and two node failures, one under a
// single-pod job and one under a job spanning pods. The first dozen
// jobs to finish each start a successor from their completion callback,
// as a scheduler does, with sensitivities that differ from their own, so
// that under PoolJobs a recycled RunningJob carries stale cached terms
// into a job that must not see them. With saturated
// set a second ambient load holds the filesystem above its threshold
// from the first instant to the last, so that its factor moves with
// every start, finish, kill and noise phase and each of them is an
// all-lanes change: the regime of a full machine on a busy Lustre.
func runScenario(t *testing.T, topo cluster.Topology, seed int64, saturated bool, configure func(*Machine)) scenarioRun {
	t.Helper()
	eng := sim.New(seed)
	m, err := New(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	configure(m)
	run := scenarioRun{hist: m.Net.History()}
	successors := 0
	var record func(rj *RunningJob)
	record = func(rj *RunningJob) {
		run.log = append(run.log, fmt.Sprintf("%d killed=%v end=%x", rj.ID, rj.Killed, rj.EndTime))
		run.jobs = append(run.jobs, doneJob{
			id: rj.ID, profile: rj.Profile, nodes: append([]cluster.NodeID(nil), rj.Alloc.Nodes...),
			baseWork: rj.BaseWork, jitter: rj.jitter, start: rj.StartTime, end: rj.EndTime, killed: rj.Killed,
		})
		if rj.Killed || successors == 12 {
			return
		}
		successors++
		n := 8
		if successors%4 == 0 {
			n = topo.PodSize + 8
		}
		alloc, err := m.Alloc.Alloc(n)
		if err != nil {
			return
		}
		p := heavyProfile()
		switch successors % 3 {
		case 0:
			p.FSSens = 0
		case 1:
			p.NetSens, p.FSSens = 0.3, 0.9
		}
		m.StartJob(p, alloc, 40, record)
	}
	if saturated {
		m.NewBackground().Set(simnet.Contribution{FS: 0.9})
	}
	if _, err := m.StartNoise(apps.Noise{NodeFraction: 0.05, MaxLoad: 0.9, FSFraction: 0.3, MinPhase: 30, MaxPhase: 120}); err != nil {
		t.Fatal(err)
	}
	bg := m.NewBackground()
	var lastSingle, lastCross cluster.NodeID // a node of the newest job of each kind
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
				if j == 5 {
					p.FSSens = 0 // deaf to the filesystem: skipped by an FS-only change
				}
				m.StartJob(p, alloc, 80+10*float64(j), record)
				if n > topo.PodSize {
					lastCross = alloc.Nodes[0]
				} else {
					lastSingle = alloc.Nodes[0]
				}
			}
		})
	}
	// Ambient swing across the FS threshold: every running job is
	// affected at once (the machine-wide barrier case).
	// The swing also brings the core links to their threshold, so that
	// jobs spanning pods move the core factor as they come and go.
	eng.At(95, func() { bg.Set(simnet.Contribution{FS: 0.7, Core: 0.6}) })
	eng.At(155, func() { bg.Set(simnet.Contribution{FS: 0.1, Core: 0.6}) })
	// Node failures mid-flight, under the newest single-pod job and,
	// a little later, under the newest job spanning pods: each kill
	// withdraws a load, so each is a contention change of its own.
	fail := func(node *cluster.NodeID) func() {
		return func() {
			if n, err := m.FailNode(*node); err != nil || n != 1 {
				t.Errorf("FailNode(%d) killed %d jobs, err %v", *node, n, err)
			}
		}
	}
	eng.At(130, fail(&lastSingle))
	eng.At(135, fail(&lastCross))
	eng.RunUntil(50000)
	if m.Running() != 0 {
		t.Fatalf("%d jobs still running at horizon", m.Running())
	}
	return run
}

// TestShardedMatchesReferenceExecutor is the machine-level differential
// oracle: the production path — dirty lanes, contention factors cached
// in simnet, network terms cached on the jobs, completions re-timed in
// batches — must produce bit-identical histories (same completions,
// same kill flags, same EndTime bits) to the serial reference, which
// recomputes every job from the raw loads and re-times one event at a
// time, across topologies and seeds, with and without job pooling, below
// the filesystem threshold and held above it.
func TestShardedMatchesReferenceExecutor(t *testing.T) {
	topos := []cluster.Topology{
		cluster.Synthetic(256, 64), // 4 even pods
		cluster.Synthetic(300, 64), // partial last pod
		cluster.Synthetic(1024, 128),
	}
	for _, topo := range topos {
		for _, saturated := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				ref := runScenario(t, topo, seed, saturated, func(m *Machine) { m.DisableFastPath = true }).log
				variants := map[string]func(*Machine){
					"fast":        func(m *Machine) {},
					"fast-pooled": func(m *Machine) { m.PoolJobs = true },
				}
				for name, configure := range variants {
					got := runScenario(t, topo, seed, saturated, configure).log
					if len(got) != len(ref) {
						t.Fatalf("%v saturated=%v seed %d %s: %d completions, reference %d",
							topo, saturated, seed, name, len(got), len(ref))
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("%v saturated=%v seed %d %s: completion %d = %q, reference %q",
								topo, saturated, seed, name, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestCompletionConservesWork checks the integration itself, which the
// differential above cannot: both executors could agree and both be
// wrong. For every job of the mixed scenario the work done is
// re-derived from outside the machine's bookkeeping — the load history's
// epochs over [StartTime, EndTime), Overload of each epoch's loads on
// the job's own nodes, the profile's slowdown formula and the job's
// jitter — as the integral of 1/slowdown(t). A job that finished must
// have done exactly its BaseWork (to 1e-9 relative: the two sums round
// differently); a killed job must have fallen short of it.
func TestCompletionConservesWork(t *testing.T) {
	for _, saturated := range []bool{false, true} {
		for _, pooled := range []bool{false, true} {
			topo := cluster.Synthetic(1024, 128)
			run := runScenario(t, topo, 2, saturated, func(m *Machine) { m.PoolJobs = pooled })
			finished, killed := 0, 0
			for _, j := range run.jobs {
				multiPod := false
				for _, n := range j.nodes {
					if topo.PodOf(n) != topo.PodOf(j.nodes[0]) {
						multiPod = true
					}
				}
				var work float64
				slices := run.hist.Window(j.start, j.end)
				for _, sl := range slices {
					var netOv float64
					for _, n := range j.nodes {
						netOv += simnet.Overload(sl.PodNet[topo.PodOf(n)])
					}
					netOv /= float64(len(j.nodes))
					coreOv := 0.0
					if multiPod {
						coreOv = simnet.Overload(sl.Core)
					}
					sd := j.profile.SlowdownCore(netOv, coreOv, simnet.Overload(sl.FS)) * j.jitter
					work += (sl.T1 - sl.T0) / sd
				}
				if j.killed {
					killed++
					if !(work < j.baseWork*(1-1e-9)) {
						t.Errorf("saturated=%v pooled=%v: killed job %d did %v of %v base work", saturated, pooled, j.id, work, j.baseWork)
					}
					continue
				}
				finished++
				if math.Abs(work-j.baseWork) > 1e-9*j.baseWork {
					t.Errorf("saturated=%v pooled=%v: job %d ran [%v, %v) over %d epochs and did %v work, base work %v (off by %.3g)",
						saturated, pooled, j.id, j.start, j.end, len(slices), work, j.baseWork, work-j.baseWork)
				}
			}
			if finished < 20 || killed != 2 {
				t.Fatalf("saturated=%v pooled=%v: %d finished, %d killed: the scenario lost its mix", saturated, pooled, finished, killed)
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
