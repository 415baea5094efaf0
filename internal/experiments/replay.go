package experiments

import (
	"fmt"
	"math"

	"rush/internal/core"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/workload"
)

// Long-horizon replay. RunTrialJobs keeps one JobRecord per completion,
// which is right for the paper's half-day Table II trials and wrong for
// a million-job year. ReplayStream runs the same loop (drive) and folds
// each completed job into running aggregates instead, so with the
// machine's history pruning keeping telemetry windowed, peak memory is
// set by the queue depth the workload reaches, not by trace length.

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm), plus the max — the one-pass replacement for the per-job
// records RunTrialJobs keeps.
type Welford struct {
	N    int
	Mean float64
	Max  float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(v float64) {
	w.N++
	d := v - w.Mean
	w.Mean += d / float64(w.N)
	w.m2 += d * (v - w.Mean)
	if v > w.Max {
		w.Max = v
	}
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 {
	if w.N < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.N-1))
}

// ReplaySummary is the streaming analogue of Trial: everything in it is
// O(1) in trace length.
type ReplaySummary struct {
	Experiment string
	Policy     Policy
	Seed       int64
	TopoNodes  int

	// Jobs counts completions (including failed jobs); Submitted counts
	// jobs handed to the scheduler (equal to Jobs after a clean drain).
	Jobs      int
	Submitted int
	// Makespan is the duration from first submission to last completion.
	Makespan float64

	// Wait, Run, and Slowdown aggregate per-job wait seconds, realized
	// run seconds, and run-over-base-work slowdown across all non-failed
	// jobs.
	Wait     Welford
	Run      Welford
	Slowdown Welford
	// HighVariation counts non-failed jobs whose slowdown reached
	// replaySlowdown.
	HighVariation int

	// Fault outcomes, as in Trial.
	NodeFailures int
	NodeRepairs  int
	JobKills     int
	FailedJobs   int
	LostWork     float64

	// Gate activity, as in Trial.
	GateEvaluations    int
	GateVetoes         int
	ThresholdOverrides int
	GateDegraded       int
	BreakerTrips       int
	DegradedTime       float64

	// PeakHeapBytes is the largest Go heap the MemSample sampler saw
	// during the run (0 when sampling is off).
	PeakHeapBytes uint64

	// Trace is the JSONL event stream (nil unless Config.Trace); Metrics
	// is the metrics snapshot (nil unless Config.Metrics).
	Trace   []byte        `json:",omitempty"`
	Metrics *obs.Snapshot `json:",omitempty"`
}

// replaySlowdown is the slowdown (realized run time over contention-free
// base work) at or above which a replayed job counts as high-variation.
// The paper's z-score definition needs the full per-app run-time
// distribution; a fixed threshold is the one-pass analogue a streaming
// replay can afford.
const replaySlowdown = 1.5

// observe folds one completed job into the summary.
func (r *ReplaySummary) observe(j *sched.Job) {
	r.Jobs++
	r.LostWork += j.LostWork
	if j.EndTime > r.Makespan {
		r.Makespan = j.EndTime
	}
	if j.Failed {
		r.FailedJobs++
		return
	}
	r.Wait.Add(j.WaitTime())
	r.Run.Add(j.RunTime())
	sd := j.RunTime() / j.BaseWork
	r.Slowdown.Add(sd)
	if sd >= replaySlowdown {
		r.HighVariation++
	}
}

// ReplayStream executes a lazily produced job stream under the given
// policy and returns streaming aggregates. The stream must yield jobs in
// non-decreasing SubmitAt order, as workload.NewSWFStream does; one that
// goes backwards fails with an error naming the job (see drive).
// Replaying the same stream contents yields bit-identical traces whether
// the jobs come from disk, gzip, or a slice (pinned by the differentials
// in replay_test.go).
//
// Unlike RunTrialJobs, a zero MaxSimTime means unbounded: a year-scale
// replay is the purpose of this entry point, not a runaway.
func ReplayStream(name string, stream workload.JobStream, policy Policy, pred *core.Predictor, seed int64, cfg Config) (*ReplaySummary, error) {
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = math.Inf(1)
	}
	sum := &ReplaySummary{Experiment: name, Policy: policy, Seed: seed}
	tr, env, err := drive(name, stream, policy, pred, seed, cfg, sum.observe)
	if err != nil {
		return nil, err
	}
	if env.submitted == 0 {
		return nil, fmt.Errorf("experiments: replay stream yielded no jobs")
	}
	sum.TopoNodes, sum.Submitted, sum.PeakHeapBytes = tr.TopoNodes, env.submitted, env.peakHeap
	sum.NodeFailures, sum.NodeRepairs, sum.JobKills = tr.NodeFailures, tr.NodeRepairs, tr.JobKills
	sum.GateEvaluations, sum.GateVetoes, sum.ThresholdOverrides = tr.GateEvaluations, tr.GateVetoes, tr.ThresholdOverrides
	sum.GateDegraded, sum.BreakerTrips, sum.DegradedTime = tr.GateDegraded, tr.BreakerTrips, tr.DegradedTime
	sum.Trace, sum.Metrics = tr.Trace, tr.Metrics
	return sum, nil
}
