// Package machine couples the simulation engine, the cluster allocator,
// the contention state, and the telemetry sampler into a runnable HPC
// machine. Its core job is run-time integration: a running job's
// completion time is recomputed whenever the contention state changes, so
// a job that begins under congestion and finishes under calm accrues
// exactly the right amount of slowdown from each epoch it lived through.
//
// # Sharded re-integration
//
// Running jobs are kept in per-pod lanes: a lane per pod for jobs whose
// allocation stays inside that pod, plus a cross lane for jobs spanning
// pods (which additionally feel core-link contention). A contention
// change (simnet.Change) names exactly the pods and globals whose
// contention factor moved, so re-integration touches only the lanes that
// can possibly be affected — O(changed) instead of O(running jobs) —
// always in (pod, lane-position) order.
//
// # What a contention change costs
//
// A job's slowdown is (1 + NetSens*(net+core) + FSSens*fs) * jitter. The
// network part, 1 + NetSens*(net+core), is cached on the job (netTerm):
// StartJob sets it and a change that names one of the job's pods, or the
// core links for a job that spans pods, refreshes it — nothing else can
// move it. The filesystem factor is cached by simnet.State. A change of
// the filesystem factor, which on a machine whose filesystem is past its
// threshold is every start and every finish, therefore costs each
// running job one multiply-add, one multiply and one compare, read from
// the head of its RunningJob; a job whose slowdown did move integrates
// its progress and re-times its completion event, and the machine tells
// the engine beforehand (sim.Engine.BatchRearm) that it is about to
// re-time every queued completion, so the engine rebuilds its heap once
// instead of sifting once per job. The oracle all of this is held to is
// the shadow check of lanes_test.go: after every mutation it recomputes
// every running job's slowdown from the raw loads and compares the bits.
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

// RunningJob tracks one executing job's integration state.
type RunningJob struct {
	// The eight words a contention change reads and writes per job come
	// first, so that one cache line serves the re-integration loop.
	jitter    float64    // per-run lognormal noise multiplier (>= ~1)
	slowdown  float64    // current wall-seconds per base-work second
	remaining float64    // seconds of base work left
	lastT     float64    // time of last integration step
	netTerm   float64    // 1 + netSens*(pod-network + core factor); see refreshNetTerm
	netSens   float64    // Profile.NetSens
	fsSens    float64    // Profile.FSSens
	done      *sim.Event // completion event, allocated once per object

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

	multiPod bool   // allocation spans pods: core contention applies
	fire     func() // stable completion callback, set once per object
	contrib  simnet.Contribution
	onDone   func(*RunningJob)

	pods      []int     // distinct pods touched, ascending
	podCounts []float64 // nodes in each of pods, parallel slice
	nNodes    float64   // len(Alloc.Nodes)
	lane      int       // pod lane index, or -1 for the cross lane
	laneIdx   int       // position in lanes[lane] (or cross)
	crossIdx  []int     // positions in crossByPod[pods[i]], cross jobs only
}

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

	// PoolJobs recycles RunningJob state (including the completion
	// event and contribution map) across jobs, so steady-state job churn
	// allocates nothing. Opt-in: a caller that retains a *RunningJob
	// after its onDone callback returns would observe the object being
	// reused for a later job, with Alloc, Owner and onDone cleared.
	PoolJobs bool

	rng     *sim.Source
	jitter  *sim.Source // pure hash source for per-job placement jitter
	probes  *sim.Source
	nextID  int
	updates bool // reentrancy guard for the state-change hook

	lanes      [][]*RunningJob // per-pod lanes: single-pod jobs, by pod
	cross      []*RunningJob   // jobs spanning pods
	crossByPod [][]*RunningJob // cross jobs indexed by each pod they touch
	nJobs      int

	freeJobs   []*RunningJob // PoolJobs freelist
	podScratch map[int]int   // scratch for per-pod node counts
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
		podScratch: make(map[int]int, 8),
	}
	m.Net.SubscribeChanges(m.onNetChange)
	return m, nil
}

// Running returns the number of currently executing jobs.
func (m *Machine) Running() int { return m.nJobs }

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
	profile.ContributionInto(m.Topo, alloc, &rj.contrib)
	m.indexPods(rj)
	// Apply the job's own load first so that its slowdown includes the
	// contention it creates (self-contention is real on shared fabrics).
	// The job is not in a lane yet, so the change notification cannot
	// re-integrate it before it has a slowdown. A pooled object carries
	// its previous job's network term: it is set here, never inherited.
	m.Net.Apply(rj.contrib)
	m.insert(rj)
	m.refreshNetTerm(rj)
	rj.slowdown = slowdownAt(rj, m.Net.FSOverload())
	m.scheduleCompletion(rj)
	return rj
}

// newJob returns a zeroed-enough RunningJob, recycled from the freelist
// when pooling is on. The completion callback and event survive reuse.
func (m *Machine) newJob() *RunningJob {
	if n := len(m.freeJobs); n > 0 {
		rj := m.freeJobs[n-1]
		m.freeJobs[n-1] = nil
		m.freeJobs = m.freeJobs[:n-1]
		return rj
	}
	rj := &RunningJob{}
	rj.fire = func() { m.complete(rj) }
	return rj
}

// indexPods fills the job's sorted pod list and per-pod node counts,
// which the weighted slowdown computation and lane bookkeeping consume.
func (m *Machine) indexPods(rj *RunningJob) {
	clear(m.podScratch)
	rj.pods = rj.pods[:0]
	rj.podCounts = rj.podCounts[:0]
	for _, n := range rj.Alloc.Nodes {
		p := m.Topo.PodOf(n)
		if m.podScratch[p] == 0 {
			rj.pods = append(rj.pods, p)
		}
		m.podScratch[p]++
	}
	sort.Ints(rj.pods)
	for _, p := range rj.pods {
		rj.podCounts = append(rj.podCounts, float64(m.podScratch[p]))
	}
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
		sum += rj.podCounts[i] * m.Net.NetOverload(p)
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
// the same order, so the same bits (the shadow check of lanes_test.go
// evaluates the uncached form).
func slowdownAt(rj *RunningJob, fsOv float64) float64 {
	s := (rj.netTerm + rj.fsSens*fsOv) * rj.jitter
	if s < 1e-6 {
		degenerate(s)
	}
	return s
}

// degenerate is kept out of line so that slowdownAt inlines into the
// re-integration loop.
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

// scheduleCompletion (re)arms the job's completion event at the
// projected finish instant. The event object is allocated once per
// RunningJob and re-timed in place (sim.Engine.Rearm) on every
// reschedule, so mid-flight contention changes cost no allocations;
// whether the engine sifts the event now or rebuilds its heap later is
// the engine's business (sim.Engine.BatchRearm).
func (m *Machine) scheduleCompletion(rj *RunningJob) {
	t := m.Eng.Now() + rj.remaining*rj.slowdown
	if rj.done == nil {
		rj.done = m.Eng.At(t, rj.fire)
	} else {
		m.Eng.Rearm(rj.done, t)
	}
}

func (m *Machine) complete(rj *RunningJob) {
	m.advance(rj)
	rj.EndTime = m.Eng.Now()
	m.removeJob(rj)
	m.Alloc.Free(rj.Alloc)
	m.Net.Remove(rj.contrib)
	if rj.onDone != nil {
		rj.onDone(rj)
	}
	m.recycle(rj)
}

// recycle returns a finished job to the freelist when pooling is on.
// Must run after onDone: callbacks read the job's final state.
func (m *Machine) recycle(rj *RunningJob) {
	if !m.PoolJobs {
		return
	}
	rj.onDone = nil
	rj.Owner = nil
	rj.Alloc = cluster.Allocation{}
	m.freeJobs = append(m.freeJobs, rj)
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
	m.advance(rj)
	// A job in a lane always has its completion queued: StartJob queues
	// it before the job can be found and complete leaves the lane.
	m.Eng.Cancel(rj.done)
	rj.EndTime = m.Eng.Now()
	rj.Killed = true
	m.removeJob(rj)
	m.Alloc.Free(rj.Alloc)
	m.Net.Remove(rj.contrib)
	if rj.onDone != nil {
		rj.onDone(rj)
	}
	m.recycle(rj)
}

// onNetChange re-integrates the running jobs a contention change can
// have affected. A job's slowdown reads only its own pods' contention
// factors, the core factor (multi-pod jobs), the filesystem factor, and
// per-job constants; the change names exactly the factors that moved, so
// jobs outside the named lanes would recompute a bit-identical slowdown
// and are skipped. Progress is integrated lazily, at slowdown changes
// only (see setSlowdown).
//
// The lanes and cross jobs named under Pods and Core get their cached
// network term refreshed; every other job's term is still exact. A
// filesystem change then visits every lane in (pod, lane-position) order
// and the cross lane after them; any other change re-integrates the
// named jobs as it refreshes them. A cross job is listed under every pod
// it touches and again in the cross lane, so a change may meet it more
// than once: the later meetings recompute the slowdown it was just
// given and leave it alone.
func (m *Machine) onNetChange(ch simnet.Change) {
	if m.updates {
		return // a re-integration never changes load; guard anyway
	}
	m.updates = true
	defer func() { m.updates = false }()
	if ch.Empty() {
		return
	}
	fsOv := m.Net.FSOverload()
	for _, p := range ch.Pods {
		m.renew(m.lanes[p], fsOv, !ch.FS)
		m.renew(m.crossByPod[p], fsOv, !ch.FS)
	}
	if ch.Core {
		m.renew(m.cross, fsOv, !ch.FS)
	}
	if ch.FS {
		// Every job feels filesystem contention, and nearly every one
		// will be re-timed: let the engine rebuild its heap once.
		m.Eng.BatchRearm(m.nJobs)
		for _, lane := range m.lanes {
			for _, rj := range lane {
				m.setSlowdown(rj, slowdownAt(rj, fsOv))
			}
		}
		for _, rj := range m.cross {
			m.setSlowdown(rj, slowdownAt(rj, fsOv))
		}
	}
}

// renew refreshes the cached network term of every job in lane, whose
// pod or core factor has moved, and re-integrates each unless a sweep of
// all lanes is about to.
func (m *Machine) renew(lane []*RunningJob, fsOv float64, reintegrate bool) {
	for _, rj := range lane {
		m.refreshNetTerm(rj)
		if reintegrate {
			m.setSlowdown(rj, slowdownAt(rj, fsOv))
		}
	}
}

// setSlowdown is the one place a running job changes pace: if sd differs
// from the job's slowdown it integrates the job's progress so far under
// the old one and re-times its completion under the new. A job whose
// slowdown is unchanged is left alone entirely: integrating it anyway
// would split one subtraction from remaining into two and round
// differently.
func (m *Machine) setSlowdown(rj *RunningJob, sd float64) {
	if sd != rj.slowdown {
		m.advance(rj)
		rj.slowdown = sd
		m.scheduleCompletion(rj)
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
	m       *Machine
	cfg     apps.Noise
	alloc   cluster.Allocation
	census  []podNodes // the allocation's node count per pod it touches
	rng     *sim.Source
	current simnet.Contribution
	active  bool
	phase   *sim.Event
}

// podNodes is one entry of a node census: how many nodes of an
// allocation sit in pod.
type podNodes struct{ pod, nodes int }

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
	for _, node := range alloc.Nodes {
		p := m.Topo.PodOf(node)
		i := slices.IndexFunc(nz.census, func(c podNodes) bool { return c.pod == p })
		if i < 0 {
			i = len(nz.census)
			nz.census = append(nz.census, podNodes{pod: p})
		}
		nz.census[i].nodes++
	}
	nz.current.PodNet = make(map[int]float64, len(nz.census))
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
	// merging would skip it. The contribution map and the phase event
	// are reused across phases, so a month of noise cycling stays
	// allocation-bounded.
	nz.m.Net.Remove(nz.current)
	level := nz.rng.Uniform(0, nz.cfg.MaxLoad)
	// Each node adds level/nodes to its pod's load. A pod's load is that
	// share added once per node it holds, accumulated here in a local —
	// the additions a per-node walk over the map performs, in the same
	// order, so the same float — and stored with one map write per pod.
	share := level / float64(len(nz.alloc.Nodes))
	for _, c := range nz.census {
		var load float64
		for k := 0; k < c.nodes; k++ {
			load += share
		}
		nz.current.PodNet[c.pod] = load
	}
	nz.current.FS = level * nz.cfg.FSFraction
	nz.m.Net.Apply(nz.current)
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
	nz.m.Net.Remove(nz.current)
	nz.current = simnet.Contribution{}
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

// Clear withdraws the ambient load.
func (b *Background) Clear() { b.Set(simnet.Contribution{}) }
