// Package experiments reproduces the paper's evaluation (Section VI): it
// runs Table II workloads on a 512-node pod with an all-to-all noise job
// on 1/16 of the nodes, under FCFS+EASY and under RUSH, for several
// paired trials, and computes the metrics behind every results figure —
// per-app variation counts (Figs 4, 5), run-time distributions (Figs 6-8),
// max-run-time improvement (Fig 9), makespan (Fig 10), and per-app wait
// times (Fig 11).
package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/faults"
	"rush/internal/lifecycle"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/parallel"
	"rush/internal/sched"
	"rush/internal/sim"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// Policy names the two compared schedulers.
type Policy string

// The scheduling policies of the evaluation. Baseline and RUSH are the
// paper's pair; Canary is the heuristic probe-threshold gate included as
// an extra comparison point.
const (
	Baseline Policy = "FCFS+EASY"
	RUSH     Policy = "RUSH"
	Canary   Policy = "Canary"
)

// Config controls the experiment environment.
type Config struct {
	// Topo is the reservation (default cluster.Pod512, as in the paper).
	Topo cluster.Topology
	// Noise configures the all-to-all noise job (default
	// apps.DefaultNoise).
	Noise apps.Noise
	// DelayOnLittle also delays jobs when the model predicts the
	// "little variation" class, not just "variation" (ablation knob).
	DelayOnLittle bool
	// AllNodesScope makes RUSH aggregate counters machine-wide instead
	// of over the job's tentative nodes (ablation knob).
	AllNodesScope bool
	// UseSJF replaces the FCFS main-queue and backfill orderings with
	// shortest-job-first — the paper notes RUSH composes with any static
	// queue-ordering policy (ablation knob).
	UseSJF bool
	// Backfill selects the backfilling discipline (default EASY, as in
	// the paper; NoBackfill and ConservativeBackfill are ablations).
	Backfill sched.BackfillMode
	// ProbThreshold switches the RUSH gate to the probability rule: jobs
	// are delayed when the model's variation-class probability mass
	// exceeds this value (0 keeps the paper's hard label rule).
	ProbThreshold float64
	// CanaryThreshold overrides the Canary policy's probe-slowdown
	// threshold (0 keeps its default; negative values are rejected).
	CanaryThreshold float64
	// CanaryAllClasses makes the Canary policy gate compute-intensive
	// jobs too, not just the network- and I/O-intensive classes.
	CanaryAllClasses bool
	// Lifecycle enables the online model lifecycle on RUSH trials:
	// drift detection over the gate's feature stream plus the
	// shadow/canary challenger registry (see internal/lifecycle). The
	// zero value is fully disabled and leaves RUSH trials bit-identical
	// to a build without the subsystem.
	Lifecycle lifecycle.Config
	// MaxSimTime aborts a trial that fails to drain (safety net;
	// default 6 hours of simulated time).
	MaxSimTime float64
	// Faults injects node failures, telemetry dropouts, and predictor
	// outages into the trial (robustness evaluation). The zero value
	// injects nothing and leaves clean runs bit-identical.
	Faults faults.Config
	// Workers bounds how many trials (and fault scenarios) execute
	// concurrently: 0 uses GOMAXPROCS, 1 forces the serial path. Each
	// trial is seeded independently and results merge in trial order, so
	// every worker count produces byte-identical output (pinned by
	// TestRunExperimentParallelDeterminism).
	Workers int

	// pruneKeep widens the telemetry-history retention past
	// defaultPruneKeep; TestReplayPruningDifferential sets it to pin that
	// retention never changes a schedule.
	pruneKeep float64

	// MemSample, when positive, samples the Go runtime heap every
	// MemSample simulated seconds into the metrics registry: the
	// sim_heap_inuse gauge holds the latest live-heap sample and
	// replay_peak_rss the high-water mark of the runtime's total memory
	// footprint; the live-heap high-water mark also lands in
	// ReplaySummary.PeakHeapBytes. Sampling draws no randomness and
	// mutates no simulation state, but it does occupy event-queue slots,
	// so compare traces only across runs with the same MemSample setting.
	MemSample float64

	// Trace records each trial's structured event stream (JSONL) into
	// Trial.Trace. Events are keyed by simulated time and buffered
	// per-trial, so traces are byte-identical at any worker count and
	// enabling them changes no scheduling decision (pinned by
	// TestTracingDoesNotPerturbScheduling).
	Trace bool
	// Metrics maintains a per-trial metrics registry (scheduler, gate,
	// breaker, fault, and engine counters plus wait/run histograms),
	// snapshotted into Trial.Metrics and rendered by ReportMetrics.
	Metrics bool
}

func (c *Config) fill() {
	if c.Topo.Nodes == 0 {
		c.Topo = cluster.Pod512()
	}
	if c.Noise == (apps.Noise{}) {
		c.Noise = apps.DefaultNoise()
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = 6 * 3600
	}
	if c.pruneKeep <= 0 {
		c.pruneKeep = defaultPruneKeep
	}
}

// Telemetry-history retention: every pruneInterval simulated seconds the
// machine drops load epochs and cached sample rows older than the keep
// width. Three windows cover every consumer's widest lookback (the gate
// aggregates one window and tolerates up to MaxStaleness of frozen
// history) with slack, and this rolling window is what holds a
// simulated year's state bounded. The cadence is fixed because prune
// events share the engine's sequence counter: a different interval
// relabels event ties.
const (
	pruneInterval    = telemetry.WindowSeconds
	defaultPruneKeep = 3 * telemetry.WindowSeconds
)

// JobRecord is one job's outcome within a trial.
type JobRecord struct {
	ID        int
	App       string
	Nodes     int
	Submit    float64
	Start     float64
	End       float64
	Wait      float64
	RunTime   float64
	Skips     int
	Immediate bool // submitted at t=0 (Fig 11 excludes these)

	// Retries counts node-failure kills the job survived; LostWork is
	// the execution time those kills discarded; Failed marks a job that
	// exhausted its retry budget and never finished.
	Retries  int
	LostWork float64
	Failed   bool
}

// Trial is one full workload execution under one policy.
type Trial struct {
	Experiment string
	Policy     Policy
	Seed       int64
	// TopoNodes is the node count of the topology the trial ran on;
	// utilization denominators derive from it, not from an assumed
	// reservation size.
	TopoNodes int
	Jobs      []JobRecord
	// Makespan is the duration from first submission to last completion.
	Makespan float64
	// GateEvaluations / GateVetoes / ThresholdOverrides report RUSH gate
	// activity (zero under the baseline).
	GateEvaluations    int
	GateVetoes         int
	ThresholdOverrides int

	// Fault-injection outcomes (all zero in clean runs).
	NodeFailures int
	NodeRepairs  int
	JobKills     int
	FailedJobs   int
	LostWork     float64
	// GateDegraded counts gate decisions that failed open; BreakerTrips
	// and DegradedTime describe the predictor circuit breaker.
	GateDegraded int
	BreakerTrips int
	DegradedTime float64

	// Model-lifecycle outcomes (all zero unless Config.Lifecycle is
	// enabled on a RUSH trial). FirstDriftAt is the simulated time of
	// the first drift detection, -1 when none fired.
	DriftDetections   int     `json:",omitempty"`
	FirstDriftAt      float64 `json:",omitempty"`
	Retrains          int     `json:",omitempty"`
	Promotions        int     `json:",omitempty"`
	Rollbacks         int     `json:",omitempty"`
	ShadowPredictions int     `json:",omitempty"`
	CanaryActed       int     `json:",omitempty"`

	// Trace is the trial's JSONL event stream (nil unless Config.Trace).
	Trace []byte `json:",omitempty"`
	// Metrics is the trial's metrics snapshot (nil unless Config.Metrics).
	Metrics *obs.Snapshot `json:",omitempty"`
}

// RunTrial executes spec once under the given policy. The same seed
// yields the same workload and noise trace for both policies, making
// baseline/RUSH comparisons paired.
func RunTrial(spec workload.Spec, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*Trial, error) {
	jobs, err := workload.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	return RunTrialJobs(spec.Name, jobs, policy, pred, seed, cfg)
}

// trialEnv is one trial's fully wired simulation environment: engine,
// observation channels, machine, fault injector, gate, and scheduler.
// Construction order is load-bearing: every random stream derives from
// the engine seed in the order components attach.
type trialEnv struct {
	eng       *sim.Engine
	traceBuf  *bytes.Buffer
	tracer    *obs.Tracer
	reg       *obs.Registry
	observer  *obs.Observer
	m         *machine.Machine
	noise     *machine.Noise
	inj       *faults.Injector
	rushGate  *sched.RUSH
	ledger    *sched.Ledger // the gate's books, whichever gate delays jobs
	lcm       *lifecycle.Manager
	s         *sched.Scheduler
	submitted int    // jobs drive handed to the scheduler
	peakHeap  uint64 // largest live heap the MemSample sampler saw
}

// newTrialEnv assembles the environment. cfg must already be filled.
func newTrialEnv(name string, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*trialEnv, error) {
	eng := sim.New(seed)

	// Per-trial observation channels. Buffering the trace in memory (and
	// keying events by simulated time only) is what makes traces
	// byte-identical at any worker count: each trial owns its buffer and
	// the caller concatenates them in trial order.
	var traceBuf *bytes.Buffer
	var tracer *obs.Tracer
	if cfg.Trace {
		traceBuf = &bytes.Buffer{}
		tracer = obs.NewBatchedTracer(traceBuf)
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
		eng.Instrument(reg.Counter("sim_events_scheduled_total"), reg.Counter("sim_events_fired_total"))
	}
	observer := obs.New(tracer, reg)
	observer.Emit(obs.Event{Time: 0, Kind: obs.KindTrial, Experiment: name, Policy: string(policy), Seed: seed})

	m, err := machine.New(eng, cfg.Topo)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Trials never hand *RunningJob to callers, so job-state pooling is
	// always safe here and keeps machine-scale churn allocation-bounded.
	m.PoolJobs = true
	noise, err := m.StartNoise(cfg.Noise)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	inj, err := faults.Attach(m, cfg.Faults, eng.Source().Derive("faults"))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	m.StartPruning(pruneInterval, cfg.pruneKeep)

	env := &trialEnv{
		eng: eng, traceBuf: traceBuf, tracer: tracer, reg: reg,
		observer: observer, m: m, noise: noise, inj: inj,
	}

	var gate sched.Gate = sched.AlwaysStart{}
	switch policy {
	case RUSH:
		if pred == nil || pred.Model == nil {
			return nil, fmt.Errorf("experiments: RUSH policy requires a trained predictor")
		}
		rushGate := sched.NewRUSH(m, pred.Model)
		rushGate.AllNodesScope = cfg.AllNodesScope
		rushGate.ProbThreshold = cfg.ProbThreshold
		rushGate.ModelDown = inj.ModelDown()
		if cfg.DelayOnLittle {
			rushGate.VariationLabels[1] = true // dataset.LabelLittle
		}
		modelName, modelSeed := pred.ModelName, seed
		lcm, err := lifecycle.New(cfg.Lifecycle, lifecycle.Deps{
			Host:            rushGate,
			Now:             eng.Now,
			Stats:           pred.Stats,
			Reference:       pred.Reference,
			NewModel:        func(s int64) (mlkit.Classifier, error) { return core.NewModel(modelName, modelSeed+s) },
			VariationLabels: rushGate.VariationLabels,
			Observer:        observer,
			Hash:            eng.Source().Derive("lifecycle"),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if lcm != nil {
			rushGate.Hook = lcm
		}
		env.rushGate, env.ledger, env.lcm = rushGate, &rushGate.Ledger, lcm
		gate = rushGate
	case Canary:
		canaryGate := sched.NewCanary(m)
		if cfg.CanaryThreshold != 0 {
			if cfg.CanaryThreshold < 0 {
				return nil, fmt.Errorf("experiments: canary threshold must be positive, got %v", cfg.CanaryThreshold)
			}
			canaryGate.SlowdownThreshold = cfg.CanaryThreshold
		}
		canaryGate.AllClasses = cfg.CanaryAllClasses
		env.ledger = &canaryGate.Ledger
		gate = canaryGate
	}
	var r1, r2 sched.Policy = sched.FCFS{}, sched.FCFS{}
	if cfg.UseSJF {
		r1, r2 = sched.SJF{}, sched.SJF{}
	}
	s, err := sched.NewScheduler(sched.Config{
		Machine: m, Primary: r1, Backfill: r2, Gate: gate,
		Mode: cfg.Backfill, Observer: observer, Faults: inj,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if env.lcm != nil {
		s.OnComplete = env.lcm.JobCompleted
	}
	env.s = s

	// The heap sampler rides the event queue: cheap, deterministic in
	// simulated time, and off unless asked for.
	if cfg.MemSample > 0 {
		heapGauge := reg.Gauge("sim_heap_inuse")
		rssGauge := reg.Gauge("replay_peak_rss")
		var sample func()
		sample = func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapGauge.Set(float64(ms.HeapInuse))
			rssGauge.Max(float64(ms.Sys))
			if ms.HeapInuse > env.peakHeap {
				env.peakHeap = ms.HeapInuse
			}
			eng.ScheduleOnce(cfg.MemSample, sample)
		}
		eng.ScheduleOnce(cfg.MemSample, sample)
	}
	return env, nil
}

// drive is the one trial loop: it assembles the environment, feeds
// stream to the scheduler, runs the engine until every submitted job has
// completed, and returns a Trial carrying everything that is not
// per-job: identity, gate, fault and lifecycle counters, the trace and
// the metrics snapshot. Each completed job is handed to observe (after
// the lifecycle hook, if any) and then dropped, so what a run retains
// per job is the caller's choice: RunTrialJobs keeps a JobRecord,
// ReplayStream folds into running aggregates.
//
// The feeder is a single front-band event (sim.Engine.AtFront) re-armed
// to each next submit time, so the pending-event heap never holds more
// than one submission however long the stream is, and submissions at
// time t fire ahead of simulation events queued earlier for the same t,
// in stream order among themselves. The stream must not go backwards in
// SubmitAt; one that does ends the run with an error naming the job,
// because submitting it late would silently under-report its wait.
func drive(name string, stream workload.JobStream, policy Policy, pred *core.Predictor, seed int64, cfg Config, observe func(*sched.Job)) (*Trial, *trialEnv, error) {
	cfg.fill()
	env, err := newTrialEnv(name, policy, pred, seed, cfg)
	if err != nil {
		return nil, nil, err
	}
	eng, s := env.eng, env.s

	s.DiscardCompleted = true
	lifecycleHook := s.OnComplete
	s.OnComplete = func(j *sched.Job) {
		if lifecycleHook != nil {
			lifecycleHook(j)
		}
		observe(j)
	}

	// pull advances next to the stream's next job and reports whether
	// there is one; a stream error or a backwards submit time sets feedErr.
	var (
		next    workload.SubmittedJob
		prevAt  float64
		feedErr error
	)
	pull := func() bool {
		n, ok, err := stream.Next()
		switch {
		case err != nil:
			feedErr = fmt.Errorf("experiments: job stream: %w", err)
		case !ok:
		case !(n.SubmitAt >= prevAt): // the negated form also rejects NaN and a start before t=0
			feedErr = fmt.Errorf("experiments: job %d submits at %v < previous %v: a job stream must be in non-decreasing submit order",
				n.Job.ID, n.SubmitAt, prevAt)
		default:
			next, prevAt = n, n.SubmitAt
			return true
		}
		return false
	}
	more := pull()
	if more {
		var feeder *sim.Event
		feeder = eng.AtFront(next.SubmitAt, func() {
			for now := eng.Now(); more && next.SubmitAt <= now; more = pull() {
				j := next.Job
				if j.Nodes <= 0 || j.Nodes > cfg.Topo.Nodes {
					feedErr = fmt.Errorf("experiments: job %d requests %d nodes on a %d-node machine",
						j.ID, j.Nodes, cfg.Topo.Nodes)
					return
				}
				if feedErr = s.Submit(j); feedErr != nil {
					return
				}
				env.submitted++
			}
			if more {
				eng.Rearm(feeder, next.SubmitAt)
			}
		})
	}

	// Drain: done when the stream is exhausted and every submitted job
	// has completed. The noise job schedules phase events forever, so the
	// queue itself never empties on a healthy run.
	for feedErr == nil && (more || s.CompletedCount() < env.submitted) {
		if eng.Now() > cfg.MaxSimTime {
			return nil, nil, fmt.Errorf("experiments: trial exceeded %v simulated seconds (%d/%d jobs done)",
				cfg.MaxSimTime, s.CompletedCount(), env.submitted)
		}
		if !eng.Step() {
			return nil, nil, fmt.Errorf("experiments: event queue drained with %d/%d jobs incomplete",
				s.CompletedCount(), env.submitted)
		}
	}
	if feedErr != nil {
		return nil, nil, feedErr
	}
	env.noise.Stop()
	if err := s.Err(); err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}

	tr := &Trial{Experiment: name, Policy: policy, Seed: seed, TopoNodes: cfg.Topo.Nodes}
	tr.NodeFailures = env.inj.NodeFailures
	tr.NodeRepairs = env.inj.NodeRepairs
	tr.JobKills = env.inj.JobKills
	if l := env.ledger; l != nil {
		tr.GateEvaluations = l.Evaluations
		tr.GateVetoes = l.Vetoes
		tr.ThresholdOverrides = l.ThresholdOverrides
		tr.GateDegraded = l.Degraded
	}
	if g := env.rushGate; g != nil {
		tr.DegradedTime = g.DegradedTime()
		if g.Breaker != nil {
			tr.BreakerTrips = g.Breaker.Trips
		}
	}
	if lcm := env.lcm; lcm != nil {
		tr.DriftDetections = lcm.DriftDetections
		tr.FirstDriftAt = lcm.FirstDriftAt
		tr.Retrains = lcm.Retrains
		tr.Promotions = lcm.Promotions
		tr.Rollbacks = lcm.Rollbacks
		tr.ShadowPredictions = lcm.ShadowDecisions
		tr.CanaryActed = lcm.CanaryActed
	}
	if env.traceBuf != nil {
		if err := env.tracer.Flush(); err != nil {
			return nil, nil, fmt.Errorf("experiments: trace: %w", err)
		}
		tr.Trace = env.traceBuf.Bytes()
	}
	if env.reg != nil {
		tr.Metrics = env.reg.Snapshot()
	}
	return tr, env, nil
}

// RunTrialJobs executes a job slice (e.g. one from workload.Generate or
// workload.FromSWF) under the given policy and keeps one JobRecord per
// job. The slice may be in any order: it is fed in SubmitAt order, jobs
// with equal submit times in slice order, and is not modified.
func RunTrialJobs(name string, jobs []workload.SubmittedJob, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*Trial, error) {
	sorted := append([]workload.SubmittedJob(nil), jobs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].SubmitAt < sorted[b].SubmitAt })

	records := make([]JobRecord, 0, len(jobs))
	tr, _, err := drive(name, workload.NewSliceStream(sorted), policy, pred, seed, cfg, func(j *sched.Job) {
		records = append(records, JobRecord{
			ID: j.ID, App: j.App.Name, Nodes: j.Nodes,
			Submit: j.SubmitTime, Start: j.StartTime, End: j.EndTime,
			Wait: j.WaitTime(), RunTime: j.RunTime(), Skips: j.Skips,
			Immediate: j.SubmitTime == 0,
			Retries:   j.Retries, LostWork: j.LostWork, Failed: j.Failed,
		})
	})
	if err != nil {
		return nil, err
	}
	tr.Jobs = records
	var lastEnd float64
	for _, rec := range records {
		if rec.Failed {
			tr.FailedJobs++
		} else if math.IsNaN(rec.RunTime) || rec.RunTime <= 0 {
			return nil, fmt.Errorf("experiments: job %d has invalid run time", rec.ID)
		}
		tr.LostWork += rec.LostWork
		if rec.End > lastEnd {
			lastEnd = rec.End
		}
	}
	tr.Makespan = lastEnd // the clock starts at t = 0
	return tr, nil
}

// Comparison holds the paired trials of one experiment.
type Comparison struct {
	Experiment string
	Spec       workload.Spec
	Baseline   []*Trial
	RUSH       []*Trial
}

// DefaultTrials is the paper's per-policy repetition count.
const DefaultTrials = 5

// FaultScenario names one fault configuration of a robustness sweep.
type FaultScenario struct {
	Name   string
	Faults faults.Config
}

// DefaultFaultScenarios is the standard robustness sweep: a clean run,
// then each fault class alone, then everything at once.
func DefaultFaultScenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "clean"},
		{Name: "node-churn", Faults: faults.Config{NodeMTBF: 4 * 3600, NodeMTTR: 900}},
		{Name: "telemetry-loss", Faults: faults.Config{TelemetryLoss: 0.2, FreezeProb: 0.05}},
		{Name: "model-outage", Faults: faults.Config{ModelOutage: 0.3}},
		{Name: "all-faults", Faults: faults.Config{
			NodeMTBF: 4 * 3600, NodeMTTR: 900,
			TelemetryLoss: 0.2, FreezeProb: 0.05,
			ModelOutage: 0.3,
		}},
	}
}

// FaultRow is one scenario's paired baseline/RUSH comparison.
type FaultRow struct {
	Scenario FaultScenario
	Cmp      *Comparison
}

// FaultMatrix runs spec under every fault scenario, paired baseline vs
// RUSH with seeds baseSeed+i, and returns one row per scenario. It is
// the robustness counterpart of RunExperiment: the same workload and
// seeds across rows, so differences between rows are the faults' doing.
// Scenarios execute concurrently under cfg.Workers; rows come back in
// scenario order regardless of which finishes first.
func FaultMatrix(spec workload.Spec, pred *core.Predictor, scenarios []FaultScenario, trials int, baseSeed int64, cfg Config) ([]FaultRow, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: %s fault matrix: trials must be positive, got %d", spec.Name, trials)
	}
	if len(scenarios) == 0 {
		scenarios = DefaultFaultScenarios()
	}
	rows, err := parallel.Map(cfg.Workers, len(scenarios), func(s int) (FaultRow, error) {
		scCfg := cfg
		scCfg.Faults = scenarios[s].Faults
		// The inner experiment keeps cfg.Workers: the nested pools bound
		// goroutines, not threads, so a matrix with fewer scenarios than
		// cores still fills the machine with its scenarios' trials.
		cmp, err := RunExperiment(spec, pred, trials, baseSeed, scCfg)
		if err != nil {
			return FaultRow{}, fmt.Errorf("experiments: fault scenario %q: %w", scenarios[s].Name, err)
		}
		return FaultRow{Scenario: scenarios[s], Cmp: cmp}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunExperiment runs spec trials times under each policy with paired
// seeds (baseSeed+i) and returns the comparison. Trials execute
// concurrently under cfg.Workers; because every trial derives all of
// its randomness from its own seed and results slot into trial order,
// the comparison is byte-identical at any worker count. trials must be
// positive (pass DefaultTrials for the paper's count).
func RunExperiment(spec workload.Spec, pred *core.Predictor, trials int, baseSeed int64, cfg Config) (*Comparison, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: %s: trials must be positive, got %d", spec.Name, trials)
	}
	cmp := &Comparison{
		Experiment: spec.Name, Spec: spec,
		Baseline: make([]*Trial, trials),
		RUSH:     make([]*Trial, trials),
	}
	// Task 2i is baseline trial i, task 2i+1 its paired RUSH trial, so
	// the lowest-index error the pool reports is the same one the old
	// serial baseline-then-RUSH loop would have hit first.
	err := parallel.Run(cfg.Workers, 2*trials, func(k int) error {
		i, seed := k/2, baseSeed+int64(k/2)
		if k%2 == 0 {
			b, err := RunTrial(spec, Baseline, pred, seed, cfg)
			if err != nil {
				return fmt.Errorf("experiments: %s baseline trial %d: %w", spec.Name, i, err)
			}
			cmp.Baseline[i] = b
			return nil
		}
		r, err := RunTrial(spec, RUSH, pred, seed, cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s RUSH trial %d: %w", spec.Name, i, err)
		}
		cmp.RUSH[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cmp, nil
}
