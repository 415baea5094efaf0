// Package machine couples the simulation engine, the cluster allocator,
// the contention state, and the telemetry sampler into a runnable HPC
// machine. Its core job is run-time integration: a running job's
// completion time is recomputed whenever the contention state changes, so
// a job that begins under congestion and finishes under calm accrues
// exactly the right amount of slowdown from each epoch it lived through.
//
// # Sharded re-integration
//
// Running jobs are kept in per-pod lanes, plus a cross lane for jobs
// spanning pods (which also feel core-link contention). A contention
// change (simnet.Change) names the pods and globals whose factor moved,
// so re-integration touches only the lanes it can affect, always in
// (pod, lane-position) order.
//
// # What a contention change costs
//
// A job's slowdown is (1 + NetSens*(net+core) + FSSens*fs) * jitter. The
// network part is cached on the job (netTerm) and refreshed only by a
// change naming one of its pods, or the core links for a job that spans
// pods. The filesystem factor, past its threshold, moves at every start
// and finish, often several times in one engine step, so a filesystem
// change only records the factor, and the step's first registers a
// sweep the engine runs before it next reads its queue
// (sim.Engine.BeforeRead). The sweep announces a batch
// (sim.Engine.BatchRearm) and replays the step's factors on every job,
// one multiply-add, multiply and compare each, from the head of its
// RunningJob. A job that moved at any integrates once, under its
// pre-step slowdown, and its completion, carried by value, is re-timed
// once at the last factor's pace: exactly what re-timing at every change
// leaves. Every factor counts: a finish and a start of equal load return
// the factor to the same bits after the finish has split a job's
// progress. lanes_test.go holds this, after every step, to slowdowns from
// raw loads and completions re-integrated at every change.
//
// # What a job costs
//
// A start takes its allocation's pod census once (apps.CountPods) for its
// pod-load list (apps.Profile.LoadsInto), the network term and the lanes.
// A pooled RunningJob makes a start and a finish allocate nothing
// (TestJobLifeZeroAllocs); a fresh one only its share of a slab.
package machine

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// RunningJob tracks one executing job's integration state. Fresh ones
// come from slabs of jobSlab, per-pod slices on inline arrays.
type RunningJob struct {
	// The words a sweep reads for every job come first and the event it
	// re-times follows by value: one cache line for a job that did not
	// move, two for one that did, no pointer chased.
	jitter    float64   // per-run lognormal noise multiplier (>= ~1)
	slowdown  float64   // current wall-seconds per base-work second
	remaining float64   // seconds of base work left
	lastT     float64   // time of last integration step
	netTerm   float64   // 1 + netSens*(pod-network + core factor); see refreshNetTerm
	fsSens    float64   // Profile.FSSens
	done      sim.Event // completion event; Fn is the job (completion)
	netSens   float64   // Profile.NetSens

	// ID is the machine-assigned run identifier.
	ID int
	// Profile is the application being run.
	Profile apps.Profile
	// Alloc is the node set the job runs on.
	Alloc cluster.Allocation
	// BaseWork is the contention-free run time in seconds.
	BaseWork float64
	// StartTime is when the job began executing.
	StartTime float64
	// EndTime is when the job finished; NaN while running.
	EndTime float64

	// Killed is true when the job was terminated by a node failure
	// instead of finishing; EndTime then records the kill instant and
	// the remaining work was lost.
	Killed bool

	// Owner is the caller's handle on the run: StartJob returns with it
	// nil, the caller may set it on the returned value and read it back
	// in onDone, so one callback can serve every job without a closure
	// per job. The machine never reads it and clears it when it pools
	// the object.
	Owner any

	multiPod bool // allocation spans pods: core contention applies
	m        *Machine
	onDone   func(*RunningJob)
	spare    []cluster.NodeID // a pooled object's last node list (SpareNodes)

	pods      []int     // distinct pods touched, ascending
	podCounts []int     // nodes in each of pods, parallel slice
	loads     []float64 // network load on each of pods, parallel slice
	core, fs  float64   // core-link and filesystem load
	nNodes    float64   // len(Alloc.Nodes)
	lane      int       // pod lane index, or -1 for the cross lane
	laneIdx   int       // position in lanes[lane] (or cross)
	crossIdx  []int     // positions in crossByPod[pods[i]], cross jobs only

	// pods, podCounts, loads and crossIdx start on these; a job on more
	// pods grows its object's slices once.
	podsBuf, countsBuf, crossBuf [inlinePods]int
	loadsBuf                     [inlinePods]float64
}

// completion is a RunningJob as the Handler of its completion event, so
// that arming it makes no closure and RunningJob exports no Fire.
type completion RunningJob

func (c *completion) Fire() {
	rj := (*RunningJob)(c)
	rj.m.complete(rj)
}

// inlinePods is how many pods a job's per-pod state holds without a heap
// slice, and jobSlab how many fresh RunningJobs one allocation carves.
const inlinePods, jobSlab = 8, 32

// RunTime returns the job's realized wall-clock run time; it is only
// meaningful after completion.
func (rj *RunningJob) RunTime() float64 { return rj.EndTime - rj.StartTime }

// Machine is a simulated HPC system.
type Machine struct {
	Eng     *sim.Engine
	Topo    cluster.Topology
	Alloc   *cluster.Allocator
	Net     *simnet.State
	Sampler *telemetry.Sampler

	// PoolJobs recycles RunningJob state (the completion event, the
	// per-pod lists and the node list, see SpareNodes) across jobs, so
	// job churn allocates nothing. Opt-in: a caller that keeps a
	// *RunningJob or its allocation past onDone sees them reused.
	PoolJobs bool

	rng    *sim.Source
	jitter *sim.Source // pure hash source for per-job placement jitter
	probes *sim.Source
	nextID int

	lanes      [][]*RunningJob // per-pod lanes: single-pod jobs, by pod
	cross      []*RunningJob   // jobs spanning pods
	crossByPod [][]*RunningJob // cross jobs indexed by each pod they touch
	nJobs      int

	fsLog  []float64 // filesystem factors of this step's changes, in order
	onRead func()    // the engine's BeforeRead callback, bound once
	armed  bool      // onRead is registered with the engine
	stats  Stats

	freeJobs []*RunningJob // PoolJobs freelist
	slab     []RunningJob  // fresh objects not yet handed out
	podTally []int         // per-pod node counts of one census, all zero between
}

// New constructs a machine over topo, with all randomness derived from
// the engine's root source. It returns an error for an invalid topology.
func New(eng *sim.Engine, topo cluster.Topology) (*Machine, error) {
	alloc, err := cluster.NewAllocator(topo)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	net, err := simnet.NewState(topo, eng.Now)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		Eng:        eng,
		Topo:       topo,
		Alloc:      alloc,
		Net:        net,
		Sampler:    telemetry.NewSampler(topo, eng.Source().Derive("telemetry")),
		rng:        eng.Source().Derive("machine"),
		jitter:     eng.Source().Derive("machine").Derive("jitter"),
		probes:     eng.Source().Derive("probes"),
		lanes:      make([][]*RunningJob, topo.Pods()),
		crossByPod: make([][]*RunningJob, topo.Pods()),
		podTally:   make([]int, topo.Pods()),
	}
	m.onRead = func() {
		m.armed = false
		m.stats.FSSweeps++
		m.sweep()
	}
	m.Net.SubscribeChanges(m.onNetChange)
	return m, nil
}

// Stats counts the contention changes that moved the filesystem factor
// and the engine steps that had one, each of which ends with a sweep.
type Stats struct{ FSChanges, FSSweeps uint64 }

// Stats returns the machine's counts so far.
func (m *Machine) Stats() Stats { return m.stats }

// StartJob begins executing profile on alloc with the given contention-
// free base run time. onDone is invoked (with the allocation already
// freed and the job's load withdrawn, rj.Alloc still naming the nodes)
// when the job completes or is killed, never before StartJob returns. A
// caller that passes the same onDone for every job tells them apart by
// setting Owner on the returned value.
func (m *Machine) StartJob(profile apps.Profile, alloc cluster.Allocation, baseWork float64, onDone func(*RunningJob)) *RunningJob {
	if baseWork <= 0 {
		panic(fmt.Sprintf("machine: non-positive base work %v for %s", baseWork, profile.Name))
	}
	if len(alloc.Nodes) == 0 {
		panic("machine: job started with empty allocation")
	}
	id := m.nextID
	m.nextID++
	rj := m.newJob()
	rj.ID = id
	rj.Profile = profile
	rj.Alloc = alloc
	rj.BaseWork = baseWork
	rj.StartTime = m.Eng.Now()
	rj.EndTime = math.NaN()
	rj.Killed = false
	rj.jitter = m.jitter.HashLogNormal(0, profile.Jitter, uint64(id))
	rj.netSens = profile.NetSens
	rj.fsSens = profile.FSSens
	rj.remaining = baseWork
	rj.lastT = m.Eng.Now()
	rj.onDone = onDone
	m.indexPods(rj)
	rj.loads = slices.Grow(rj.loads[:0], len(rj.pods))[:len(rj.pods)]
	rj.core, rj.fs = profile.LoadsInto(m.Topo, rj.pods, rj.podCounts, rj.loads)
	// Apply the job's own load first so that its slowdown includes the
	// contention it creates (self-contention is real on shared fabrics).
	// The job is not in a lane yet, so the change notification cannot
	// re-integrate it before it has a slowdown. A pooled object carries
	// its previous job's network term: it is set here, never inherited.
	m.Net.ApplyLoads(rj.pods, rj.loads, rj.core, rj.fs)
	m.insert(rj)
	m.refreshNetTerm(rj)
	rj.slowdown = slowdownAt(rj, m.Net.FSOverload())
	m.Eng.Rearm(&rj.done, rj.lastT+rj.remaining*rj.slowdown)
	return rj
}

// newJob returns a zeroed-enough RunningJob, recycled from the freelist
// when pooling is on, otherwise the next of the slab, whose completion
// event is set up once. Its slices survive reuse.
func (m *Machine) newJob() *RunningJob {
	if n := len(m.freeJobs); n > 0 {
		rj := m.freeJobs[n-1]
		m.freeJobs[n-1] = nil
		m.freeJobs = m.freeJobs[:n-1]
		return rj
	}
	if len(m.slab) == 0 {
		m.slab = make([]RunningJob, jobSlab)
	}
	rj := &m.slab[0]
	m.slab = m.slab[1:]
	rj.pods, rj.podCounts, rj.crossIdx = rj.podsBuf[:0], rj.countsBuf[:0], rj.crossBuf[:0]
	rj.loads = rj.loadsBuf[:0]
	rj.m, rj.done.Fn = m, (*completion)(rj)
	return rj
}

// indexPods takes the census of the job's allocation, which the loads,
// the weighted slowdown and the lane bookkeeping read.
func (m *Machine) indexPods(rj *RunningJob) {
	rj.pods, rj.podCounts = apps.CountPods(m.Topo, rj.Alloc, m.podTally, rj.pods[:0], rj.podCounts[:0])
	rj.nNodes = float64(len(rj.Alloc.Nodes))
	rj.multiPod = len(rj.pods) > 1
}

// insert places a job into its lane: the pod lane for single-pod jobs,
// the cross lane (plus each touched pod's cross index) otherwise.
func (m *Machine) insert(rj *RunningJob) {
	m.nJobs++
	if !rj.multiPod {
		p := rj.pods[0]
		rj.lane = p
		rj.laneIdx = len(m.lanes[p])
		m.lanes[p] = append(m.lanes[p], rj)
		return
	}
	rj.lane = -1
	rj.laneIdx = len(m.cross)
	m.cross = append(m.cross, rj)
	rj.crossIdx = rj.crossIdx[:0]
	for _, p := range rj.pods {
		rj.crossIdx = append(rj.crossIdx, len(m.crossByPod[p]))
		m.crossByPod[p] = append(m.crossByPod[p], rj)
	}
}

// removeJob takes a job out of its lane (and cross indexes) by swapping
// the lane's last entry into its slot.
func (m *Machine) removeJob(rj *RunningJob) {
	m.nJobs--
	if rj.lane >= 0 {
		removeAt(&m.lanes[rj.lane], rj.laneIdx, func(moved *RunningJob, i int) { moved.laneIdx = i })
		return
	}
	removeAt(&m.cross, rj.laneIdx, func(moved *RunningJob, i int) { moved.laneIdx = i })
	for i, p := range rj.pods {
		removeAt(&m.crossByPod[p], rj.crossIdx[i], func(moved *RunningJob, idx int) {
			// The moved job records its position per touched pod; find
			// which of its pods this list belongs to.
			j := sort.SearchInts(moved.pods, p)
			moved.crossIdx[j] = idx
		})
	}
}

// removeAt swap-removes s[i], telling fix about the entry that moved
// into the hole. Swap order is deterministic, so lane iteration order —
// and everything scheduled from it — is too.
func removeAt(s *[]*RunningJob, i int, fix func(*RunningJob, int)) {
	sl := *s
	last := len(sl) - 1
	if i != last {
		moved := sl[last]
		sl[i] = moved
		fix(moved, i)
	}
	sl[last] = nil
	*s = sl[:last]
}

// refreshNetTerm recomputes the job's cached network term,
// 1 + NetSens*(netOv + coreOv), from the present contention factors.
// netOv is the node-weighted mean factor over the job's pods, summed in
// ascending pod order: O(pods touched) rather than O(nodes), and
// bit-reproducible; jobs spanning several pods additionally feel
// core-link contention. The term depends on the factors of the job's own
// pods and, for a multi-pod job, of the core links, and on nothing else
// that changes while the job runs.
func (m *Machine) refreshNetTerm(rj *RunningJob) {
	var sum float64
	for i, p := range rj.pods {
		sum += float64(rj.podCounts[i]) * m.Net.NetOverload(p)
	}
	netOv := 0.0
	if rj.nNodes > 0 {
		netOv = sum / rj.nNodes
	}
	coreOv := 0.0
	if rj.multiPod {
		coreOv = m.Net.CoreOverload()
	}
	rj.netTerm = 1 + rj.netSens*(netOv+coreOv)
}

// slowdownAt evaluates a job's wall-per-work factor from its cached
// network term and the given filesystem factor, including its per-run
// jitter: the operations of apps.Profile.SlowdownCore times jitter in
// the same order, so the same bits (the oracle of lanes_test.go
// evaluates the uncached form).
func slowdownAt(rj *RunningJob, fsOv float64) float64 {
	s := (rj.netTerm + rj.fsSens*fsOv) * rj.jitter
	if s < 1e-6 {
		degenerate(s)
	}
	return s
}

// degenerate is kept out of line so that slowdownAt inlines into the
// sweep.
//
//go:noinline
func degenerate(s float64) {
	panic(fmt.Sprintf("machine: degenerate slowdown %v", s))
}

// advance integrates a job's progress up to the current instant under its
// previously computed slowdown.
func (m *Machine) advance(rj *RunningJob) {
	dt := m.Eng.Now() - rj.lastT
	if dt > 0 {
		rj.remaining -= dt / rj.slowdown
		if rj.remaining < 0 {
			rj.remaining = 0
		}
		rj.lastT = m.Eng.Now()
	}
}

// complete ends a job that finished or, from kill, was killed. It
// integrates under the job's pre-step slowdown, as a sweep would have at
// the job's first move in the step.
func (m *Machine) complete(rj *RunningJob) {
	m.advance(rj)
	rj.EndTime = m.Eng.Now()
	m.removeJob(rj)
	m.Alloc.Free(rj.Alloc)
	m.Net.RemoveLoads(rj.pods, rj.loads, rj.core, rj.fs)
	if rj.onDone != nil {
		rj.onDone(rj)
	}
	m.recycle(rj)
}

// recycle returns a finished job to the freelist when pooling is on.
// Must run after onDone: callbacks read the job's final state, and
// complete frees the nodes before onDone runs, whose scheduling pass
// allocates again while rj.Alloc is still read.
func (m *Machine) recycle(rj *RunningJob) {
	if !m.PoolJobs {
		return
	}
	rj.onDone = nil
	rj.Owner = nil
	rj.spare, rj.Alloc = rj.Alloc.Nodes, cluster.Allocation{}
	m.freeJobs = append(m.freeJobs, rj)
}

// SpareNodes returns the node list of the pooled run the next StartJob
// reuses, for the allocation that job starts on to be written into
// (cluster.Allocator.AllocInto), or nil when nothing is pooled. Its job
// is over and its onDone has returned, so nothing reads it.
func (m *Machine) SpareNodes() []cluster.NodeID {
	if n := len(m.freeJobs); n > 0 {
		return m.freeJobs[n-1].spare
	}
	return nil
}

// FailNode takes node out of service: the allocator stops handing it out
// and any job running on it is killed — its allocation freed, its load
// withdrawn, and its onDone callback invoked with Killed == true so the
// scheduler can requeue it. It returns the number of jobs killed (0 or 1;
// allocations are exclusive).
func (m *Machine) FailNode(node cluster.NodeID) (int, error) {
	if err := m.Alloc.MarkDown(node); err != nil {
		return 0, fmt.Errorf("machine: %w", err)
	}
	// Any job on node lives either in the node's pod lane or in that
	// pod's cross index, so the victim scan is O(lane) not O(running).
	// Allocations are exclusive: at most one job holds the node, so scan
	// order cannot change which job dies.
	pod := m.Topo.PodOf(node)
	victim := findOnNode(m.lanes[pod], node)
	if victim == nil {
		victim = findOnNode(m.crossByPod[pod], node)
	}
	if victim == nil {
		return 0, nil
	}
	m.kill(victim)
	return 1, nil
}

func findOnNode(lane []*RunningJob, node cluster.NodeID) *RunningJob {
	for _, rj := range lane {
		for _, n := range rj.Alloc.Nodes {
			if n == node {
				return rj
			}
		}
	}
	return nil
}

// RestoreNode returns a previously failed node to service.
func (m *Machine) RestoreNode(node cluster.NodeID) error {
	if err := m.Alloc.MarkUp(node); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// kill terminates a running job mid-flight: progress is lost, the
// allocation is freed (down nodes stay out of the pool), and the load is
// withdrawn before onDone fires.
func (m *Machine) kill(rj *RunningJob) {
	m.Eng.Cancel(&rj.done)
	rj.Killed = true
	m.complete(rj)
}

// onNetChange re-integrates the running jobs a contention change can
// have affected: a job's slowdown reads only its own pods' factors, the
// core factor (multi-pod jobs) and the filesystem factor. A change naming
// pods or the core links runs the pending sweep, which reads the network
// terms, refreshes the named jobs' terms and re-integrates them as a
// batch unless a sweep will. A cross job met more than once is left alone
// after the first. A filesystem change records its factor for the sweep.
func (m *Machine) onNetChange(ch simnet.Change) {
	if len(ch.Pods) > 0 || ch.Core {
		m.sweep()
		n := 0
		for _, p := range ch.Pods {
			n += len(m.lanes[p]) + len(m.crossByPod[p])
		}
		if ch.Core {
			n += len(m.cross)
		}
		if !ch.FS {
			m.Eng.BatchRearm(n)
		}
		for _, p := range ch.Pods {
			m.renew(m.lanes[p], !ch.FS)
			m.renew(m.crossByPod[p], !ch.FS)
		}
		if ch.Core {
			m.renew(m.cross, !ch.FS)
		}
	}
	if ch.FS {
		m.stats.FSChanges++
		m.fsLog = append(m.fsLog, m.Net.FSOverload())
		if !m.armed {
			m.armed = true
			m.Eng.BeforeRead(m.onRead)
		}
	}
}

// renew refreshes the network term of every job in lane, whose pod or
// core factor moved, and re-integrates the lane under the present
// filesystem factor unless a sweep will.
func (m *Machine) renew(lane []*RunningJob, reintegrate bool) {
	for _, rj := range lane {
		m.refreshNetTerm(rj)
	}
	if reintegrate {
		sweepLane(m.Eng, lane, []float64{m.Net.FSOverload()}, m.Eng.Now())
	}
}

// sweep replays the step's factors on every running job.
func (m *Machine) sweep() {
	log := m.fsLog
	if len(log) == 0 {
		return
	}
	m.fsLog = log[:0]
	eng := m.Eng
	eng.BatchRearm(m.nJobs)
	now := eng.Now()
	for _, lane := range m.lanes {
		sweepLane(eng, lane, log, now)
	}
	sweepLane(eng, m.cross, log, now)
}

// sweepLane is the one place a running job changes pace: it replays the
// filesystem factors of log on every job of lane. A job that moved at
// any integrates under its old slowdown, unless it did at this instant
// already, and is re-timed once at the last factor's. One that never
// moved is left alone: integrating it would split one subtraction from
// remaining into two and round differently.
func sweepLane(eng *sim.Engine, lane []*RunningJob, log []float64, now float64) {
	for _, rj := range lane {
		sd, moved := rj.slowdown, false
		for _, fsOv := range log {
			if s := slowdownAt(rj, fsOv); s != sd {
				sd, moved = s, true
			}
		}
		if !moved {
			continue
		}
		if dt := now - rj.lastT; dt > 0 {
			rj.remaining -= dt / rj.slowdown
			if rj.remaining < 0 {
				rj.remaining = 0
			}
			rj.lastT = now
		}
		rj.slowdown = sd
		if t := now + rj.remaining*sd; !eng.Rekey(&rj.done, t) {
			eng.Rearm(&rj.done, t)
		}
	}
}

// RunProbes runs the MPI probe benchmarks on alloc under the current
// state, drawing noise from the machine's probe stream.
func (m *Machine) RunProbes(alloc cluster.Allocation) simnet.ProbeResult {
	return simnet.RunProbes(m.Net, alloc, m.probes)
}

// RunProbesInto is RunProbes writing into res, reusing its slices. The
// noise draw order is identical, so mixing the two forms never perturbs
// the probe stream.
func (m *Machine) RunProbesInto(alloc cluster.Allocation, res *simnet.ProbeResult) {
	simnet.RunProbesInto(m.Net, alloc, m.probes, res)
}

// StartPruning schedules a recurring prune of the machine's load history
// and the sampler's row store: every interval simulated seconds, load
// epochs older than keep seconds before the current instant are dropped,
// bounding memory over long experiments, and the sampler is told, so that
// no stored row outlives the history it was computed from (the store is
// bounded by its rings either way).
// keep must cover the widest lookback any consumer performs — at least
// telemetry.WindowSeconds for the sampler's aggregation window, plus
// slack for staleness checks — since pruned history cannot be queried.
// The prune events emit nothing and consume no randomness, so runs stay
// deterministic and traces byte-identical.
func (m *Machine) StartPruning(interval, keep float64) {
	if interval <= 0 {
		panic(fmt.Sprintf("machine: non-positive prune interval %v", interval))
	}
	var ev *sim.Event
	ev = m.Eng.Schedule(interval, func() {
		cut := m.Eng.Now() - keep
		m.Net.History().Prune(cut)
		m.Sampler.Prune(cut)
		m.Eng.Rearm(ev, m.Eng.Now()+interval)
	})
}

// Noise drives the paper's synthetic all-to-all noise job: it occupies a
// fixed set of nodes and cycles through phases of uniformly drawn network
// load.
type Noise struct {
	m            *Machine
	cfg          apps.Noise
	alloc        cluster.Allocation
	pods, counts []int     // the allocation's census (apps.CountPods), taken once
	loads        []float64 // this phase's load on each of pods
	fs           float64   // and on the filesystem
	rng          *sim.Source
	active       bool
	phase        *sim.Event
}

// StartNoise allocates cfg.NodeFraction of the machine's nodes and begins
// cycling load phases. It returns an error when the nodes cannot be
// allocated.
func (m *Machine) StartNoise(cfg apps.Noise) (*Noise, error) {
	n := int(math.Round(cfg.NodeFraction * float64(m.Topo.Nodes)))
	if n < 1 {
		n = 1
	}
	alloc, err := m.Alloc.Alloc(n)
	if err != nil {
		return nil, fmt.Errorf("machine: noise job: %w", err)
	}
	nz := &Noise{m: m, cfg: cfg, alloc: alloc, rng: m.rng.Derive("noise"), active: true}
	// The allocation never changes, so its per-pod node census is taken
	// once; every phase spreads its level over the same pods.
	nz.pods, nz.counts = apps.CountPods(m.Topo, alloc, m.podTally, nil, nil)
	nz.loads = make([]float64, len(nz.pods))
	nz.nextPhase()
	return nz, nil
}

// Nodes returns the noise job's allocation size.
func (nz *Noise) Nodes() int { return len(nz.alloc.Nodes) }

func (nz *Noise) nextPhase() {
	if !nz.active {
		return
	}
	// Withdraw the previous phase's load, draw a new level, apply it:
	// two mutations, not one merged delta — a job whose factor goes
	// s -> s' -> s is re-timed twice, from an advanced remaining, and
	// merging would skip it. The loads and the phase event are reused
	// across phases, so a month of noise cycling allocates nothing.
	nz.m.Net.RemoveLoads(nz.pods, nz.loads, 0, nz.fs)
	level := nz.rng.Uniform(0, nz.cfg.MaxLoad)
	// Each node adds level/nodes to its pod's load. A pod's load is that
	// share added once per node it holds: the additions a per-node walk
	// performs, in the same order, so the same float.
	share := level / float64(len(nz.alloc.Nodes))
	for i := range nz.pods {
		var load float64
		for k := 0; k < nz.counts[i]; k++ {
			load += share
		}
		nz.loads[i] = load
	}
	nz.fs = level * nz.cfg.FSFraction
	nz.m.Net.ApplyLoads(nz.pods, nz.loads, 0, nz.fs)
	delay := nz.rng.Uniform(nz.cfg.MinPhase, nz.cfg.MaxPhase)
	if nz.phase == nil {
		nz.phase = nz.m.Eng.Schedule(delay, nz.nextPhase)
	} else {
		nz.m.Eng.Rearm(nz.phase, nz.m.Eng.Now()+delay)
	}
}

// Stop withdraws the noise load and frees its nodes.
func (nz *Noise) Stop() {
	if !nz.active {
		return
	}
	nz.active = false
	if nz.phase != nil {
		nz.m.Eng.Cancel(nz.phase)
	}
	nz.m.Net.RemoveLoads(nz.pods, nz.loads, 0, nz.fs)
	nz.m.Alloc.Free(nz.alloc)
}

// Background injects a caller-controlled ambient load (used by the
// longitudinal collection pipeline to model the rest of the machine's
// workload, including the paper's mid-December congestion incident).
type Background struct {
	m       *Machine
	current simnet.Contribution
}

// NewBackground returns an ambient load handle with zero initial load.
func (m *Machine) NewBackground() *Background { return &Background{m: m} }

// Set replaces the ambient contribution. Loads are absolute (not deltas).
func (b *Background) Set(c simnet.Contribution) {
	b.m.Net.Remove(b.current)
	b.current = c
	b.m.Net.Apply(c)
}
