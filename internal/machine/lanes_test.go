package machine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
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
// in completion order as comparable strings, the jobs themselves, the
// machine's unpruned load history, and how many (step boundary, running
// job) pairs the oracle compared.
type scenarioRun struct {
	log     []string
	jobs    []doneJob
	hist    *simnet.History
	checked int
}

// referenceSlowdown is the oracle's slowdown: everything from scratch —
// Overload of each raw load, the profile's own formula — with no state
// read that the production path caches.
func referenceSlowdown(m *Machine, rj *RunningJob) float64 {
	var sum float64
	for i, p := range rj.pods {
		sum += float64(rj.podCounts[i]) * simnet.Overload(m.Net.NetLoad(p))
	}
	netOv := 0.0
	if rj.nNodes > 0 {
		netOv = sum / rj.nNodes
	}
	coreOv := 0.0
	if rj.multiPod {
		coreOv = simnet.Overload(m.Net.CoreLoad())
	}
	return rj.Profile.SlowdownCore(netOv, coreOv, simnet.Overload(m.Net.FSLoad())) * rj.jitter
}

// eagerJob is the reference executor's state of one running job.
type eagerJob struct{ slowdown, remaining, lastT float64 }

// oracle is the machine's reference executor. It re-integrates every
// running job at every contention change, with the slowdown computed
// from the raw loads (referenceSlowdown) — the order of work the machine
// coalesces into one sweep per engine step — and at every step boundary
// it compares, bit for bit, each running job's cached slowdown with the
// one from raw loads, so no lane a change should have reached was
// skipped and no cached factor or network term is stale, and the job's
// queued completion time with lastT + remaining*slowdown of its own
// integration, so the sweep's replay integrated exactly where the eager
// order would have. Subscribed to the contention state after the
// machine, it sees each mutation once the machine has handled it.
type oracle struct {
	t       *testing.T
	m       *Machine
	jobs    map[int]*eagerJob // by RunningJob.ID
	armed   bool              // shadowCheck is registered with the engine
	steps   int               // step boundaries checked
	checked int               // (step boundary, running job) pairs compared
	fsSteps uint64            // engine steps with a filesystem change
	fsStep  uint64            // Fired()+1 at the last filesystem change
}

func newOracle(t *testing.T, m *Machine) *oracle {
	o := &oracle{t: t, m: m, jobs: map[int]*eagerJob{}}
	m.Net.SubscribeChanges(o.change)
	return o
}

// each calls f on every running job, each once.
func (o *oracle) each(f func(rj *RunningJob)) {
	for _, lane := range o.m.lanes {
		for _, rj := range lane {
			f(rj)
		}
	}
	for _, rj := range o.m.cross {
		f(rj)
	}
}

// started takes over a job StartJob just returned.
func (o *oracle) started(rj *RunningJob) {
	o.jobs[rj.ID] = &eagerJob{slowdown: referenceSlowdown(o.m, rj), remaining: rj.BaseWork, lastT: rj.StartTime}
	o.arm()
}

// ended drops a job its onDone callback reported.
func (o *oracle) ended(rj *RunningJob) { delete(o.jobs, rj.ID) }

// change re-integrates every running job whose slowdown moved.
func (o *oracle) change(ch simnet.Change) {
	if step := o.m.Eng.Fired() + 1; ch.FS && step != o.fsStep {
		o.fsStep = step
		o.fsSteps++
	}
	now := o.m.Eng.Now()
	o.each(func(rj *RunningJob) {
		ej := o.jobs[rj.ID]
		if sd := referenceSlowdown(o.m, rj); sd != ej.slowdown {
			if dt := now - ej.lastT; dt > 0 {
				ej.remaining -= dt / ej.slowdown
				if ej.remaining < 0 {
					ej.remaining = 0
				}
				ej.lastT = now
			}
			ej.slowdown = sd
		}
	})
	o.arm()
}

func (o *oracle) arm() {
	if !o.armed {
		o.armed = true
		o.m.Eng.BeforeRead(o.shadowCheck)
	}
}

// shadowCheck runs at a step boundary, after the machine's sweep: when
// the machine registered its sweep later in the step than the oracle,
// the check registers itself again, behind it.
func (o *oracle) shadowCheck() {
	if o.m.armed {
		o.m.Eng.BeforeRead(o.shadowCheck)
		return
	}
	o.armed = false
	o.steps++
	o.each(func(rj *RunningJob) {
		o.checked++
		if want := referenceSlowdown(o.m, rj); math.Float64bits(rj.slowdown) != math.Float64bits(want) {
			o.t.Fatalf("t=%v job %d (lane %d): cached slowdown %x, from raw loads %x", o.m.Eng.Now(), rj.ID, rj.lane, rj.slowdown, want)
		}
		ej := o.jobs[rj.ID]
		if want := ej.lastT + ej.remaining*ej.slowdown; rj.done.Cancelled() || rj.done.Time != want {
			o.t.Fatalf("t=%v job %d (lane %d): completion at %x (cancelled=%v), the eager executor's at %x",
				o.m.Eng.Now(), rj.ID, rj.lane, rj.done.Time, rj.done.Cancelled(), want)
		}
	})
}

// scenarioJobs is the successor chain's length: with the staggered
// starts that fit the machine it makes a run of about 190 jobs, as long
// as one scheduling trial.
const scenarioJobs = 180

// runScenario drives one deterministic multi-pod workload — staggered
// job starts across pods, a noise job, an ambient load swing that
// crosses the filesystem threshold, and two node failures, one under a
// small job and one under a large job (spanning pods wherever the
// topology has more than one). The first scenarioJobs jobs to finish
// each start a successor from their completion callback, as a scheduler
// does, with sensitivities that differ from their own, so that under
// PoolJobs a recycled RunningJob carries stale cached terms into a job
// that must not see them. With saturated set a second ambient load holds
// the filesystem above its threshold from the first instant to the
// last, so that its factor moves with every start, finish, kill and
// noise phase and each of them is an all-lanes change: the regime of a
// full machine on a busy Lustre.
//
// Every run is watched by the oracle, at the boundary of every engine
// step that mutated the contention state or started a job.
func runScenario(t *testing.T, topo cluster.Topology, seed int64, saturated, pooled bool) scenarioRun {
	t.Helper()
	eng := sim.New(seed)
	m, err := New(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	m.PoolJobs = pooled
	run := scenarioRun{hist: m.Net.History()}
	o := newOracle(t, m)
	// large is the node count of the scenario's big jobs: past one pod
	// where there are several, a quarter of the machine otherwise.
	large := topo.PodSize + 8
	if large > topo.Nodes/2 {
		large = topo.Nodes / 4
	}
	// Filesystem load is not normalised by machine size as network load
	// is: four dozen 520-node jobs side by side at the per-node rate would
	// hold its factor in the tens of thousands for weeks. So a job's
	// filesystem traffic stops growing at fsNodes nodes and at most
	// maxRunning jobs run at a time, the large job and the capacity of the
	// 1,024-node shape; the smaller shapes fill up before either binds.
	const fsNodes, maxRunning = 136, 18
	var record func(rj *RunningJob)
	// launch starts p on n fresh nodes and returns the first of them,
	// unless the cap or the machine is full (deterministic either way).
	launch := func(p apps.Profile, n int, work float64) (cluster.NodeID, bool) {
		if m.nJobs >= maxRunning {
			return 0, false
		}
		alloc, err := m.Alloc.Alloc(n)
		if err != nil {
			return 0, false
		}
		p.FSPerNode *= float64(min(n, fsNodes)) / float64(n)
		o.started(m.StartJob(p, alloc, work, record))
		return alloc.Nodes[0], true
	}
	successors := 0
	record = func(rj *RunningJob) {
		o.ended(rj)
		run.log = append(run.log, fmt.Sprintf("%d killed=%v end=%x", rj.ID, rj.Killed, rj.EndTime))
		run.jobs = append(run.jobs, doneJob{
			id: rj.ID, profile: rj.Profile, nodes: append([]cluster.NodeID(nil), rj.Alloc.Nodes...),
			baseWork: rj.BaseWork, jitter: rj.jitter, start: rj.StartTime, end: rj.EndTime, killed: rj.Killed,
		})
		if rj.Killed || successors == scenarioJobs {
			return
		}
		successors++
		n := 8
		if successors%4 == 0 {
			n = large
		}
		p := heavyProfile()
		switch successors % 3 {
		case 0:
			p.FSSens = 0
		case 1:
			p.NetSens, p.FSSens = 0.3, 0.9
		}
		launch(p, n, 40)
	}
	if saturated {
		m.NewBackground().Set(simnet.Contribution{FS: 0.9})
	}
	if _, err := m.StartNoise(apps.Noise{NodeFraction: 0.05, MaxLoad: 0.9, FSFraction: 0.3, MinPhase: 30, MaxPhase: 120}); err != nil {
		t.Fatal(err)
	}
	bg := m.NewBackground()
	var lastSmall, lastLarge cluster.NodeID // a node of the newest job of each size
	// Staggered starts: a batch every 40s, alternating profiles and
	// sizes so single-pod and cross-pod lanes both populate.
	for batch := 0; batch < 6; batch++ {
		eng.At(float64(batch)*40, func() {
			for j := 0; j < 8; j++ {
				n := 8
				if j%3 == 0 {
					n = large
				}
				p := heavyProfile()
				if j%2 == 0 {
					p.FSPerNode = 0.008 // push FS over threshold in aggregate
				}
				if j == 5 {
					p.FSSens = 0 // deaf to the filesystem: skipped by an FS-only change
				}
				node, ok := launch(p, n, 80+10*float64(j))
				switch {
				case !ok:
				case n == large:
					lastLarge = node
				default:
					lastSmall = node
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
	// Node failures mid-flight, under the newest small job and, a little
	// later, under the newest large one: each kill withdraws a load, so
	// each is a contention change of its own.
	fail := func(node *cluster.NodeID) func() {
		return func() {
			if n, err := m.FailNode(*node); err != nil || n != 1 {
				t.Errorf("FailNode(%d) killed %d jobs, err %v", *node, n, err)
			}
		}
	}
	eng.At(130, fail(&lastSmall))
	eng.At(135, fail(&lastLarge))
	eng.RunUntil(200000)
	if m.nJobs != 0 {
		t.Fatalf("%v seed %d saturated=%v: %d jobs still running at horizon", topo, seed, saturated, m.nJobs)
	}
	if m.stats.FSSweeps != o.fsSteps {
		t.Fatalf("%v seed %d saturated=%v: %d filesystem sweeps, %d steps with a filesystem change", topo, seed, saturated, m.stats.FSSweeps, o.fsSteps)
	}
	run.checked = o.checked
	return run
}

// scenarioTopos are the shapes the machine is checked on: three small
// synthetic ones (even pods, a partial last pod, wide pods) and the
// three the commands offer, the paper's single 512-node pod, full Quartz
// and the 4,096-node 8-pod stress shape.
func scenarioTopos() []cluster.Topology {
	return []cluster.Topology{
		cluster.Synthetic(256, 64),
		cluster.Synthetic(300, 64),
		cluster.Synthetic(1024, 128),
		cluster.Pod512(),
		cluster.Quartz(),
		cluster.Synthetic(4096, 512),
	}
}

// scenarioSeeds are the seeds every topology is run under.
var scenarioSeeds = []int64{1, 2, 3, 4, 5}

// TestShardedMatchesReferenceExecutor is the machine-level oracle: on
// the production path — dirty lanes, contention factors cached in
// simnet, network terms cached on the jobs, filesystem changes replayed
// once per step, completions re-timed in batches — every running job's
// slowdown after every engine step must be, bit for bit, the one a full
// recomputation from the raw loads gives, and its completion event must
// sit where an executor that re-integrates at every change puts it (the
// oracle, wired into runScenario), across topologies and seeds, below
// the filesystem threshold and held above it. Job pooling must not
// show: the pooled run's completions carry the same bits.
func TestShardedMatchesReferenceExecutor(t *testing.T) {
	for _, topo := range scenarioTopos() {
		for _, saturated := range []bool{false, true} {
			for _, seed := range scenarioSeeds {
				plain := runScenario(t, topo, seed, saturated, false)
				pooled := runScenario(t, topo, seed, saturated, true)
				if plain.checked < 1000 || pooled.checked != plain.checked {
					t.Fatalf("%v saturated=%v seed %d: oracle compared %d jobs plain, %d pooled",
						topo, saturated, seed, plain.checked, pooled.checked)
				}
				if !slices.Equal(plain.log, pooled.log) {
					t.Fatalf("%v saturated=%v seed %d: pooling changed the completions\nplain:  %v\npooled: %v",
						topo, saturated, seed, plain.log, pooled.log)
				}
			}
		}
	}
}

// TestCompletionConservesWork checks the integration itself, which the
// oracle cannot: a slowdown can be right at every instant and the
// progress integrated under it still be wrong. For every job of the
// scenario, on the same topologies and seeds, the work done is
// re-derived from outside the machine's bookkeeping — the load history's
// epochs over [StartTime, EndTime), Overload of each epoch's loads on
// the job's own nodes, the profile's slowdown formula and the job's
// jitter — as the integral of 1/slowdown(t). A job that finished must
// have done exactly its BaseWork (to 1e-9 relative: the two sums round
// differently); a killed job must have fallen short of it.
func TestCompletionConservesWork(t *testing.T) {
	for _, topo := range scenarioTopos() {
		for _, seed := range scenarioSeeds {
			for _, saturated := range []bool{false, true} {
				for _, pooled := range []bool{false, true} {
					name := fmt.Sprintf("%v seed %d saturated=%v pooled=%v", topo, seed, saturated, pooled)
					run := runScenario(t, topo, seed, saturated, pooled)
					finished, killed := 0, 0
					for _, j := range run.jobs {
						work := workDone(topo, run.hist, j)
						if j.killed {
							killed++
							if !(work < j.baseWork*(1-1e-9)) {
								t.Errorf("%s: killed job %d did %v of %v base work", name, j.id, work, j.baseWork)
							}
							continue
						}
						finished++
						if math.Abs(work-j.baseWork) > 1e-9*j.baseWork {
							t.Errorf("%s: job %d ran [%v, %v) and did %v work, base work %v (off by %.3g)",
								name, j.id, j.start, j.end, work, j.baseWork, work-j.baseWork)
						}
					}
					if finished < 180 || killed != 2 {
						t.Fatalf("%s: %d finished, %d killed: the scenario lost its mix", name, finished, killed)
					}
				}
			}
		}
	}
}

// TestOneStepReplaysEveryFactor packs into one engine step everything
// the sweep has to replay in order: a finish and a start of equal
// filesystem load, which return the filesystem factor to the same bits,
// a change naming a pod, which runs the pending sweep in mid-step, a
// kill, and another start. Every job the finish moved has already had its
// progress split in two by the eager order, although its slowdown is
// back where it began, so a sweep that looked at the last factor only
// would leave it alone and its completion off by a rounding. The oracle
// compares every completion time, at this step's boundary and every
// later one, with the eager executor's, bit for bit. The loads are
// multiples of a quarter, so the sums are exact.
func TestOneStepReplaysEveryFactor(t *testing.T) {
	eng := sim.New(3)
	m, err := New(eng, cluster.Synthetic(256, 64))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, m)
	p := heavyProfile()
	// No network load of their own: only the background names a pod.
	p.NetPerNode, p.FSPerNode = 0, 1.0/32 // 8 nodes: a quarter of filesystem load
	deaf := p
	deaf.FSSens = 0
	m.NewBackground().Set(simnet.Contribution{FS: 1.0})
	start := func(p apps.Profile, nodes int, work float64, onDone func(*RunningJob)) *RunningJob {
		alloc, err := m.Alloc.Alloc(nodes)
		if err != nil {
			t.Fatal(err)
		}
		rj := m.StartJob(p, alloc, work, func(rj *RunningJob) {
			o.ended(rj)
			if onDone != nil {
				onDone(rj)
			}
		})
		o.started(rj)
		return rj
	}
	for i := 0; i < 12; i++ {
		start(p, 8, 1000+61*float64(i), nil)
	}
	start(deaf, 8, 1200, nil)
	start(p, 80, 1500, nil) // spans pods
	victim := start(p, 8, 2000, nil)
	hot := victim.pods[0]
	node := victim.Alloc.Nodes[0]
	podLoad := m.NewBackground()
	finished := false
	start(p, 8, 300, func(*RunningJob) {
		finished = true
		// The load before the finish was a quarter more, exactly.
		f0, fa := simnet.Overload(m.Net.FSLoad()+0.25), m.Net.FSOverload()
		start(p, 8, 900, nil)
		if fs := m.Net.FSOverload(); fs != f0 || fa == f0 {
			t.Fatalf("factor %x before the finish, %x after it, %x after an equal start: want a move and a return", f0, fa, fs)
		}
		podLoad.Set(simnet.Contribution{PodNet: map[int]float64{hot: 0.9}})
		if n, err := m.FailNode(node); n != 1 || err != nil {
			t.Fatalf("FailNode killed %d jobs, err %v", n, err)
		}
		start(p, 8, 700, nil)
	})
	eng.RunUntil(1e7)
	if !finished || m.nJobs != 0 {
		t.Fatalf("finisher done %v, %d jobs still running", finished, m.nJobs)
	}
	if m.stats.FSSweeps < 2 || o.steps < 10 {
		t.Fatalf("%d sweeps, %d step boundaries checked", m.stats.FSSweeps, o.steps)
	}
}

// workDone integrates 1/slowdown over the epochs of hist that j ran
// through, from the job's node list and profile alone.
func workDone(topo cluster.Topology, hist *simnet.History, j doneJob) float64 {
	perPod := make([]float64, topo.Pods()) // the job's node count per pod
	spanned := 0
	for _, n := range j.nodes {
		if perPod[topo.PodOf(n)] == 0 {
			spanned++
		}
		perPod[topo.PodOf(n)]++
	}
	var work float64
	for _, sl := range hist.WindowInto(j.start, j.end, nil) {
		var netOv float64
		for pod, nodes := range perPod {
			netOv += nodes * simnet.Overload(sl.PodNet[pod])
		}
		netOv /= float64(len(j.nodes))
		coreOv := 0.0
		if spanned > 1 {
			coreOv = simnet.Overload(sl.Core)
		}
		sd := j.profile.SlowdownCore(netOv, coreOv, simnet.Overload(sl.FS)) * j.jitter
		work += (sl.T1 - sl.T0) / sd
	}
	return work
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
		if seen != m.nJobs {
			t.Fatalf("lanes hold %d jobs, nJobs = %d", seen, m.nJobs)
		}
	}
	check()
	// Kill in mixed order to force swap-removes in every structure.
	for _, i := range []int{0, 7, 4, 11, 1, 8} {
		m.kill(jobs[i])
		check()
	}
	eng.Run()
	if m.nJobs != 0 {
		t.Fatal("jobs remain after drain")
	}
	check()
}

// TestContentionChangeZeroAllocs pins the unit of work a saturated
// machine is made of: full Quartz with 760 pooled jobs running on 1 to 8
// nodes, the filesystem and pod 3's network held past their thresholds
// by an ambient load, and a job-sized load applied and withdrawn in
// turn, as a start and a finish do, then a network-only load on pod 3.
// The job's moves the filesystem factor, and the clock moves after each
// change, so each is an all-lanes sweep: 760 slowdowns recomputed, 760
// completions re-timed, the event heap rebuilt; the network-only one
// re-integrates pod 3's lane as a batch of its own. None of it
// allocates once the load history holds the epochs of its retention
// window: the history copies the pod loads into a ring slot a prune
// released. One change a simulated second fills the ring until the
// first prune past the retention window (1,200 s), so the warm-up runs
// that far plus 64 changes. The count is a runtime.MemStats delta over
// 200 changes, so a single allocation in any of them fails it; it is the
// fewest of three, each on a machine built and warmed afresh (see
// alloctest.Count).
func TestContentionChangeZeroAllocs(t *testing.T) {
	const interval, keep = telemetry.WindowSeconds, 3 * telemetry.WindowSeconds
	var (
		m      *Machine
		change func(i int)
	)
	build := func() {
		eng := sim.New(7)
		var err error
		m, err = New(eng, cluster.Quartz())
		if err != nil {
			t.Fatal(err)
		}
		m.PoolJobs = true
		profiles := apps.Defaults()
		sizes := []int{1, 2, 4, 8}
		for i := 0; i < 760; i++ {
			alloc, err := m.Alloc.Alloc(sizes[i%len(sizes)])
			if err != nil {
				t.Fatal(err)
			}
			m.StartJob(profiles[i%len(profiles)], alloc, 1e12, nil)
		}
		m.NewBackground().Set(simnet.Contribution{FS: 1.0, PodNet: map[int]float64{3: 0.9}})
		m.StartPruning(interval, keep)
		job := simnet.Contribution{PodNet: map[int]float64{3: 0.01}, FS: 0.004}
		net := simnet.Contribution{PodNet: map[int]float64{3: 0.01}}
		change = func(i int) {
			c := &job
			if i&2 != 0 {
				c = &net
			}
			if i&1 == 0 {
				m.Net.Apply(*c)
			} else {
				m.Net.Remove(*c)
			}
			eng.RunUntil(eng.Now() + 1)
		}
		for i := 0; i < interval+keep+64; i++ {
			change(i)
		}
	}
	objects, _ := alloctest.Count(3, build, func() {
		for i := 0; i < 200; i++ {
			change(i)
		}
	})
	if m.nJobs != 760 {
		t.Fatalf("%d jobs running, want 760", m.nJobs)
	}
	if objects != 0 {
		t.Fatalf("200 contention changes allocated %d times; want 0", objects)
	}
}
