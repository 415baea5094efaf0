// Package sched implements the paper's job scheduling algorithms: a
// baseline FCFS + EASY-backfilling scheduler (Algorithm 1) with pluggable
// queue-ordering policies, and the RUSH modification (Algorithm 2) in
// which the Start function consults an ML variability predictor and
// pushes a job back — bounded by a per-job skip threshold — whenever
// variation is predicted for the current system state.
//
// # Construction
//
// Schedulers are built from a Config (see NewScheduler): the machine,
// the two queue-ordering policies, the gate, an optional observer for
// structured tracing and metrics, and an optional pre-attached fault
// injector. NewScheduler is the only constructor.
//
// # Error handling
//
// Submit and Pass validate what they can and return errors, but most
// scheduling work happens inside simulation event callbacks where no
// caller can receive one. Internal failures there (e.g. allocator
// divergence) are therefore recorded as a sticky error: the scheduler
// stops starting jobs and Err returns the first such failure. Drivers
// must check Err after draining the workload.
//
// # Observability
//
// When Config.Observer is set, the scheduler emits structured events for
// every job lifecycle step (submit, start, backfill, finish, requeue,
// failure) and maintains counters and wait/run-time histograms in the
// observer's metrics registry. Gates and the circuit breaker emit their
// own decision and transition events (see Ledger and Breaker). A nil
// observer compiles to a nil check on the hot path: zero allocations,
// pinned by TestPassZeroAllocs and BenchmarkPassNoObserver.
//
// # Fail-open semantics
//
// The RUSH gate is an optimization, never a dependency: any failure on
// the decision path degrades the scheduler to plain FCFS+EASY rather
// than stalling the queue. Concretely, a decision falls back to
// "start the job" — and is counted as degraded, not as a veto — when
// the predictor call errors or the model service is down (ModelDown),
// when the telemetry needed for the feature vector is older than
// MaxStaleness or more than MaxMissing of it is absent, or when the
// circuit breaker is open. Pipeline (pipeline.go) is the one place
// those layers and their order are written; the in-process gate and the
// serving daemon both walk it.
//
// The Breaker wraps the predictor call with the classic three-state
// circuit: Closed passes calls through and counts consecutive
// failures; reaching the failure threshold trips it Open, where every
// decision skips the model entirely (cheap, deterministic fail-open)
// until OpenDuration of simulated time elapses; the first decision
// after that runs HalfOpen as a single probe — success closes the
// breaker, failure re-opens it for another cool-down. Trip and
// degraded-decision counts surface on the trial metrics so faulted
// experiments can assert the gate failed open rather than silently
// misbehaving.
package sched

import (
	"fmt"
	"math"
	"time"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/obs"
)

// DefaultSkipThreshold is the paper's bound on how many times one job may
// be skipped (it was never reached in their experiments).
const DefaultSkipThreshold = 10

// DefaultRetryBudget bounds how many times a job killed by a node
// failure is requeued before it is abandoned as Failed.
const DefaultRetryBudget = 3

// Job is one queued or completed job.
type Job struct {
	// ID is unique within a workload; FCFS ties break on it.
	ID int
	// App is the application profile to run.
	App apps.Profile
	// Nodes is the requested node count.
	Nodes int
	// BaseWork is the contention-free run time in seconds.
	BaseWork float64
	// Estimate is the user-provided walltime estimate the backfiller
	// plans with (>= BaseWork for honest users).
	Estimate float64
	// SubmitTime is when the job entered the queue.
	SubmitTime float64
	// SkipThreshold bounds RUSH skips for this job; 0 means
	// DefaultSkipThreshold and a negative value means the job is never
	// delayed (the per-job priority extension the paper suggests).
	SkipThreshold int

	// RetryBudget bounds requeues after node-failure kills: 0 means
	// DefaultRetryBudget and a negative value means the job fails on its
	// first kill.
	RetryBudget int

	// Skips counts RUSH delays applied to this job (Algorithm 2's
	// SkipTable entry).
	Skips int
	// Retries counts node-failure kills after which the job was
	// requeued.
	Retries int
	// LostWork is the wall-clock seconds of execution lost to kills
	// (time from each killed stint's start to its kill).
	LostWork float64
	// Failed marks a job abandoned after exhausting its retry budget;
	// it still appears in Completed (EndTime is the final kill instant)
	// so workloads drain, but it never finished its work.
	Failed bool
	// StartTime and EndTime are filled in as the job executes; NaN until
	// then. For a requeued job they describe the final stint only.
	StartTime float64
	EndTime   float64

	queuedAt  float64 // when the job (re-)entered the queue
	waitAccum float64 // queued seconds accumulated across all stints
	seq       uint64  // enqueue serial; breaks policy ties exactly like a stable sort

	// Veto bookkeeping, kept on the job instead of in per-pass maps so
	// the scheduling hot path allocates nothing (see Pass).
	vetoGen     uint64  // pass generation of the most recent veto
	lastVetoAt  float64 // when the job was last gate-vetoed
	vetoPending bool    // vetoed since it last started
}

// WaitTime returns total time spent queued, accumulated across every
// requeue (a killed-and-requeued job reports all of its queued stints,
// not just the last one); valid once the job has started.
func (j *Job) WaitTime() float64 {
	if math.IsNaN(j.StartTime) {
		return math.NaN()
	}
	return j.waitAccum
}

// RunTime returns the realized run time of the final stint; valid once
// the job has ended. Execution time lost in killed stints is in
// LostWork.
func (j *Job) RunTime() float64 { return j.EndTime - j.StartTime }

// SkipLimit returns the job's effective skip threshold. A zero limit
// means the gate may never delay the job.
func (j *Job) SkipLimit() int { return SkipLimit(j.SkipThreshold) }

// RetryLimit returns the job's effective retry budget. A zero limit
// means the job fails on its first node-failure kill.
func (j *Job) RetryLimit() int {
	switch {
	case j.RetryBudget < 0:
		return 0
	case j.RetryBudget > 0:
		return j.RetryBudget
	default:
		return DefaultRetryBudget
	}
}

// Policy orders the scheduler queue (the paper's R1 and R2).
//
// Less must be a strict weak ordering over fields that do not change
// while a job is queued (FCFS reads SubmitTime, SJF reads Estimate;
// both are fixed at submission). The scheduler maintains the queue
// incrementally in policy order instead of re-sorting it every pass, so
// a key that mutated while queued would silently corrupt the order. Ties
// are broken by enqueue sequence, which reproduces exactly the order a
// stable sort of the arrival-ordered queue would produce; the reference
// scanner in reference_test.go sorts that way and the differential tests
// hold the two job for job.
type Policy interface {
	// Less reports whether a should run before b.
	Less(a, b *Job) bool
	// Name identifies the policy in reports.
	Name() string
}

// FCFS orders jobs by submission time (first come, first served).
type FCFS struct{}

// Less implements Policy.
func (FCFS) Less(a, b *Job) bool {
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// SJF orders jobs by user estimate (shortest job first).
type SJF struct{}

// Less implements Policy.
func (SJF) Less(a, b *Job) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate < b.Estimate
	}
	return a.ID < b.ID
}

// Name implements Policy.
func (SJF) Name() string { return "SJF" }

// Gate is the decision point of Algorithm 2's modified Start function:
// given a job and its tentative allocation, Allow reports whether the job
// should launch now. Returning false pushes the job back (the scheduler
// frees the allocation, increments the skip count, and the job keeps its
// queue position). Gates must honor the job's skip threshold themselves
// via job.Skips — see RUSH's implementation in gate.go.
type Gate interface {
	// Allow reports whether j may start on alloc under the current
	// system state.
	Allow(j *Job, alloc cluster.Allocation) bool
	// Name identifies the gate in reports.
	Name() string
}

// ObservableGate is implemented by gates that can report decision
// provenance through an observer. NewScheduler wires Config.Observer
// into any gate implementing it.
type ObservableGate interface {
	Gate
	// Observe attaches the observer (tracer + metrics).
	Observe(*obs.Observer)
}

// AlwaysStart is the baseline gate: every job launches immediately.
type AlwaysStart struct{}

// Allow implements Gate.
func (AlwaysStart) Allow(*Job, cluster.Allocation) bool { return true }

// Name implements Gate.
func (AlwaysStart) Name() string { return "FCFS+EASY" }

// BackfillMode selects the backfilling discipline.
type BackfillMode int

const (
	// EASYBackfill gives only the queue head a reservation; later jobs
	// backfill if they cannot delay it (the paper's baseline).
	EASYBackfill BackfillMode = iota
	// NoBackfill runs strict in-order scheduling: the first job that
	// does not fit blocks everything behind it.
	NoBackfill
	// ConservativeBackfill gives every queued job a tentative
	// reservation; a job may start early only if it delays none of them.
	ConservativeBackfill
)

// String returns the mode name for reports.
func (m BackfillMode) String() string {
	switch m {
	case EASYBackfill:
		return "EASY"
	case NoBackfill:
		return "none"
	case ConservativeBackfill:
		return "conservative"
	default:
		return fmt.Sprintf("BackfillMode(%d)", int(m))
	}
}

// schedMetrics holds the scheduler's pre-resolved metric handles. With
// no observer every handle is nil and every update is a no-op; resolving
// them once at construction keeps name lookups off the hot path.
type schedMetrics struct {
	submitted  *obs.Counter
	started    *obs.Counter
	backfilled *obs.Counter
	finished   *obs.Counter
	requeued   *obs.Counter
	failed     *obs.Counter
	vetoes     *obs.Counter
	passes     *obs.Counter
	passWall   *obs.Counter
	queuePeak  *obs.Gauge
	breakpts   *obs.Gauge
	waitHist   *obs.Histogram
	runHist    *obs.Histogram
}

// Fixed histogram bucket edges (seconds). Fixed edges keep per-trial
// snapshots mergeable and byte-identical across runs.
var (
	waitBuckets = []float64{1, 5, 15, 30, 60, 120, 300, 600, 1200, 1800, 3600}
	runBuckets  = []float64{60, 120, 180, 240, 300, 450, 600, 900, 1800, 3600}
)

// Scheduler runs Algorithm 1 over a simulated machine: the main queue is
// ordered by R1; when the head cannot start, it receives an EASY
// reservation and R2-ordered candidates are backfilled around it without
// delaying that reservation. Alternative backfill disciplines are
// selected with the Backfill field.
type Scheduler struct {
	m   *machine.Machine
	r1  Policy
	r2  Policy
	gt  Gate
	obs *obs.Observer
	met schedMetrics

	// Backfill selects the backfilling discipline (default EASY).
	Backfill BackfillMode

	queue      []*Job
	running    []*Job
	completed  []*Job
	nCompleted int

	// DiscardCompleted drops finished jobs instead of retaining them in
	// the completion list: they are still counted (CompletedCount),
	// metered, traced, and handed to OnComplete, but Completed stays
	// empty. Long-horizon replays set this — a million-job year must not
	// accumulate a million *Job records — and consume per-job results
	// through OnComplete instead.
	DiscardCompleted bool

	// Maintained orders: queue is kept in (R1, seq) order and q2 holds the
	// same jobs in backfill-candidate order, with blkNodes/blkEst holding
	// per-block minima so the candidate scan can skip 64 jobs at a time
	// (fastpass.go); tl mirrors the running set's release breakpoints
	// (timeline.go). nextSeq stamps Job.seq at every (re-)enqueue.
	tl       timeline
	q2       []*Job
	blkNodes []int
	blkEst   []float64
	nextSeq  uint64
	prof     profile // pooled conservative-backfill profile

	// OnComplete, when set, observes each finished job.
	OnComplete func(*Job)
	// RetryInterval bounds how long vetoed jobs can idle the machine: if
	// a pass ends with vetoes while nodes are free, another pass runs
	// after this many seconds (the system state may have changed, e.g. a
	// noise phase ended). Zero disables the retry timer.
	RetryInterval float64
	// VetoCooldown is how long a gate-vetoed job rests before it is
	// re-evaluated (and can be re-charged a skip). Without a cooldown a
	// busy machine re-asks the model on every job completion — every few
	// seconds — and a delayed job would burn through its whole skip
	// threshold inside a single congestion phase. The paper's threshold
	// of 10 "was never met"; a cooldown equal to the retry interval
	// reproduces that behaviour. Zero disables the cooldown.
	VetoCooldown float64
	// RequeueBackoff is the base delay before a killed job re-enters the
	// queue; retry i waits RequeueBackoff * 2^(i-1), capped at
	// MaxRequeueBackoff. Backoff keeps a crashing node from thrashing
	// the queue with instant resubmissions. Zero requeues immediately.
	RequeueBackoff float64
	// MaxRequeueBackoff caps the exponential requeue delay (default 15
	// minutes).
	MaxRequeueBackoff float64

	// Veto bookkeeping. passGen identifies the current pass: a job with
	// vetoGen == passGen was vetoed this pass and is not reconsidered
	// until the next one. passVetoes counts vetoes in the current pass
	// and pendingVetoes the jobs vetoed since they last started; both
	// replace the per-pass maps the scheduler used to allocate.
	passGen       uint64
	passVetoes    int
	pendingVetoes int

	// passBody, when non-nil, runs in place of the timeline pass. It is
	// the scheduler's one test seam: nothing outside _test.go writes it,
	// and the reference scanner of reference_test.go goes in here.
	passBody func()

	onDone     func(*machine.RunningJob) // s.jobDone, bound once
	inPass     bool
	passWant   bool
	retryArmed bool
	err        error
}

// Machine returns the underlying machine.
func (s *Scheduler) Machine() *machine.Machine { return s.m }

// QueueLen returns the number of queued jobs.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// RunningLen returns the number of executing jobs.
func (s *Scheduler) RunningLen() int { return len(s.running) }

// Completed returns the finished jobs in completion order (empty when
// DiscardCompleted is set).
func (s *Scheduler) Completed() []*Job { return s.completed }

// CompletedCount returns how many jobs have finished (including failed
// ones), whether or not they were retained.
func (s *Scheduler) CompletedCount() int { return s.nCompleted }

// Observer returns the attached observer, or nil.
func (s *Scheduler) Observer() *obs.Observer { return s.obs }

// Submit validates and enqueues j (stamping its submit time), then runs
// a scheduling pass. A job that cannot ever run on this machine — too
// large, without finite positive work, or with a non-finite estimate —
// is rejected with an error rather than enqueued.
func (s *Scheduler) Submit(j *Job) error {
	if j.Nodes <= 0 || j.Nodes > s.m.Topo.Nodes {
		return fmt.Errorf("sched: job %d requests %d nodes on a %d-node machine", j.ID, j.Nodes, s.m.Topo.Nodes)
	}
	// Refused here because nobody can receive the error later: the
	// machine panics on non-positive work inside an event callback, never
	// finishes infinite work, and a NaN estimate has no place in the
	// maintained orders.
	if !(j.BaseWork > 0) || math.IsInf(j.BaseWork, 1) {
		return fmt.Errorf("sched: job %d has base work %v, want finite and positive", j.ID, j.BaseWork)
	}
	if math.IsNaN(j.Estimate) || math.IsInf(j.Estimate, 0) {
		return fmt.Errorf("sched: job %d has a non-finite estimate %v", j.ID, j.Estimate)
	}
	if j.Estimate <= 0 {
		j.Estimate = j.BaseWork
	}
	j.SubmitTime = s.m.Eng.Now()
	j.StartTime = math.NaN()
	j.EndTime = math.NaN()
	j.queuedAt = j.SubmitTime
	j.waitAccum = 0
	j.vetoGen = 0
	j.lastVetoAt = 0
	j.vetoPending = false
	s.enqueue(j)
	s.met.submitted.Inc()
	s.met.queuePeak.Max(float64(len(s.queue)))
	if s.obs != nil {
		s.obs.Emit(obs.Event{Time: j.SubmitTime, Kind: obs.KindSubmit, Job: j.ID, App: j.App.Name, Nodes: j.Nodes})
	}
	return s.Pass()
}

// Err returns the first internal error the scheduler hit inside an event
// callback (where no caller can receive it), or nil. Once set the
// scheduler stops starting jobs; drivers should check it after draining.
func (s *Scheduler) Err() error { return s.err }

// Pass runs one scheduling cycle. Each queued job is considered at most
// once per pass; a gate veto leaves the job queued with its priority
// intact (the paper: the delayed job "remains at the top of the queue
// and will be the first to be considered ... next time resources become
// available"). The returned error is sticky — see Err.
//
// The cycle itself is the availability-timeline pass of fastpass.go,
// near-O(changes) and, with a nil observer, allocation-free in steady
// state (pinned by TestPassZeroAllocs and `make bench-sched`). The
// O(queue × nodes) scanner it is differenced against lives in
// reference_test.go.
func (s *Scheduler) Pass() error {
	if s.inPass {
		s.passWant = true
		return s.err
	}
	s.inPass = true
	defer func() {
		s.inPass = false
		if s.passWant {
			s.passWant = false
			s.Pass()
		}
	}()

	var t0 time.Time
	if s.obs != nil {
		t0 = time.Now()
	}
	s.passGen++
	s.passVetoes = 0
	if s.passBody != nil {
		s.passBody()
	} else {
		s.passFast()
	}

	blockedIdle := len(s.queue) > 0 && len(s.running) == 0
	if (s.passVetoes > 0 || s.pendingVetoes > 0 || blockedIdle) && s.RetryInterval > 0 && !s.retryArmed {
		// Without this timer, a fully vetoed queue on an idle machine
		// would deadlock: no submit/finish event would ever re-run the
		// pass even though the state keeps changing (noise phases,
		// external allocations like the noise job releasing nodes).
		s.retryArmed = true
		s.m.Eng.ScheduleOnce(s.RetryInterval, func() {
			s.retryArmed = false
			s.Pass()
		})
	}
	s.met.passes.Inc()
	s.met.breakpts.Max(float64(s.tl.peak))
	if s.obs != nil {
		s.met.passWall.Add(uint64(time.Since(t0).Microseconds()))
	}
	return s.err
}

// coolingDown reports whether j was gate-vetoed too recently to be
// reconsidered.
func (s *Scheduler) coolingDown(j *Job) bool {
	if s.VetoCooldown <= 0 {
		return false
	}
	return j.vetoPending && s.m.Eng.Now()-j.lastVetoAt < s.VetoCooldown
}

// tryStart allocates, consults the gate, and either launches the job or
// applies the Algorithm 2 push-back. backfill marks starts that came
// through the backfilling path rather than the head of the main queue.
// An allocation failure after a positive CanAlloc means scheduler and
// allocator state have diverged; it is recorded as a sticky error (Pass
// runs inside event callbacks, so there is no caller to return it to
// mid-cycle) and stops the pass.
func (s *Scheduler) tryStart(j *Job, backfill bool) bool {
	alloc, err := s.m.Alloc.Alloc(j.Nodes)
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("sched: allocation failed after CanAlloc for job %d: %w", j.ID, err)
		}
		return false
	}
	if !s.gt.Allow(j, alloc) {
		s.m.Alloc.Free(alloc)
		j.Skips++
		j.vetoGen = s.passGen
		j.lastVetoAt = s.m.Eng.Now()
		s.passVetoes++
		if !j.vetoPending {
			j.vetoPending = true
			s.pendingVetoes++
		}
		s.met.vetoes.Inc()
		return false
	}
	j.StartTime = s.m.Eng.Now()
	j.waitAccum += j.StartTime - j.queuedAt
	if j.vetoPending {
		j.vetoPending = false
		s.pendingVetoes--
	}
	s.fastRemove(j)
	s.running = append(s.running, j)
	s.tl.add(j, j.StartTime+j.Estimate)
	if backfill {
		s.met.backfilled.Inc()
	} else {
		s.met.started.Inc()
	}
	s.met.waitHist.Observe(j.waitAccum)
	if s.obs != nil {
		kind := obs.KindStart
		if backfill {
			kind = obs.KindBackfill
		}
		s.obs.Emit(obs.Event{Time: j.StartTime, Kind: kind, Job: j.ID, App: j.App.Name,
			Nodes: j.Nodes, Wait: j.waitAccum, Skips: j.Skips})
	}
	s.m.StartJob(j.App, alloc, j.BaseWork, s.onDone).Owner = j
	return true
}

// jobDone is the completion callback of every job the scheduler starts
// (held in onDone, built once); the job is the run's Owner.
func (s *Scheduler) jobDone(rj *machine.RunningJob) {
	j := rj.Owner.(*Job)
	if rj.Killed {
		s.requeue(j)
	} else {
		s.finish(j)
	}
}

// enqueue stamps j's enqueue serial and inserts it into the maintained
// orders.
func (s *Scheduler) enqueue(j *Job) {
	s.nextSeq++
	j.seq = s.nextSeq
	s.fastInsert(j)
}

func (s *Scheduler) finish(j *Job) {
	j.EndTime = s.m.Eng.Now()
	s.removeRunning(j)
	if !s.DiscardCompleted {
		s.completed = append(s.completed, j)
	}
	s.nCompleted++
	s.met.finished.Inc()
	s.met.runHist.Observe(j.RunTime())
	if s.obs != nil {
		s.obs.Emit(obs.Event{Time: j.EndTime, Kind: obs.KindFinish, Job: j.ID, App: j.App.Name,
			Nodes: j.Nodes, Runtime: j.RunTime()})
	}
	if s.OnComplete != nil {
		s.OnComplete(j)
	}
	s.Pass()
}

// requeue handles a job killed mid-run by a node failure: the lost stint
// is charged to LostWork and the job either re-enters the queue after an
// exponential backoff or — once its retry budget is spent — completes as
// Failed so the workload still drains.
func (s *Scheduler) requeue(j *Job) {
	now := s.m.Eng.Now()
	j.LostWork += now - j.StartTime
	j.Retries++
	s.removeRunning(j)
	if j.Retries > j.RetryLimit() {
		j.Failed = true
		j.EndTime = now
		if !s.DiscardCompleted {
			s.completed = append(s.completed, j)
		}
		s.nCompleted++
		s.met.failed.Inc()
		if s.obs != nil {
			s.obs.Emit(obs.Event{Time: now, Kind: obs.KindJobFailed, Job: j.ID, Retries: j.Retries})
		}
		if s.OnComplete != nil {
			s.OnComplete(j)
		}
		s.Pass()
		return
	}
	j.StartTime = math.NaN()
	j.EndTime = math.NaN()
	delay := s.RequeueBackoff
	if delay > 0 {
		for i := 1; i < j.Retries && delay < s.MaxRequeueBackoff; i++ {
			delay *= 2
		}
		if s.MaxRequeueBackoff > 0 && delay > s.MaxRequeueBackoff {
			delay = s.MaxRequeueBackoff
		}
	}
	s.met.requeued.Inc()
	if s.obs != nil {
		s.obs.Emit(obs.Event{Time: now, Kind: obs.KindRequeue, Job: j.ID, Retries: j.Retries, Delay: delay})
	}
	s.m.Eng.ScheduleOnce(delay, func() {
		j.queuedAt = s.m.Eng.Now()
		s.enqueue(j)
		s.Pass()
	})
	// The failed node's peers freed their allocation: try to fill them.
	s.Pass()
}

func (s *Scheduler) removeRunning(j *Job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			s.tl.remove(j)
			break
		}
	}
}
