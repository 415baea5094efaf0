package workload

import (
	"math"

	"rush/internal/apps"
	"rush/internal/sched"
	"rush/internal/sim"
)

// Standard Workload Format (SWF) support. SWF is the de-facto archive
// format for HPC job logs (the Parallel Workloads Archive); supporting it
// lets RUSH replay real cluster traces instead of the synthetic Table II
// streams.
//
// Each SWF record is 18 whitespace-separated fields; unknown values are
// -1 and comment lines start with ';'. SWFScanner / NewSWFStream in
// stream.go yield records lazily off an io.Reader, so a year-scale trace
// never has to fit in memory. Records are interpreted and converted by
// interpretSWF and swfConverter; the materializing loader the tests
// difference the stream against (swfref_test.go) runs the same two.

// swfFields is the SWF record width: 18 whitespace-separated values.
const swfFields = 18

// swfMinFields is the shortest record the hardened parser accepts: at
// least job number, submit time, wait time, and run time must be
// present. Shorter data lines are malformed, not merely incomplete, and
// surface as line-numbered errors.
const swfMinFields = 4

// SWFJob is one record of an SWF trace. Unknown fields hold -1, as in
// the archive format itself.
type SWFJob struct {
	ID           int
	Submit       float64 // seconds since trace start
	Wait         float64
	RunTime      float64
	Procs        int // allocated processors
	AvgCPU       float64
	UsedMem      float64
	ReqProcs     int
	ReqTime      float64
	ReqMem       float64
	Status       int
	UserID       int
	GroupID      int
	ExecutableID int
	QueueID      int
	PartitionID  int
	PrecedingJob int
	ThinkTime    float64
}

// interpretSWF maps the 18 parsed field values onto a record, applying
// the SWF spec's "-1 means unknown" defaults where a sane substitute
// exists: an unknown allocated-processor count falls back to the
// requested count (and vice versa), and an unknown submit time clamps to
// the trace start. Every loader builds records through this one
// function.
func interpretSWF(fv *[swfFields]float64) SWFJob {
	j := SWFJob{
		ID: int(fv[0]), Submit: fv[1], Wait: fv[2], RunTime: fv[3],
		Procs: int(fv[4]), AvgCPU: fv[5], UsedMem: fv[6],
		ReqProcs: int(fv[7]), ReqTime: fv[8], ReqMem: fv[9],
		Status: int(fv[10]), UserID: int(fv[11]), GroupID: int(fv[12]),
		ExecutableID: int(fv[13]), QueueID: int(fv[14]), PartitionID: int(fv[15]),
		PrecedingJob: int(fv[16]), ThinkTime: fv[17],
	}
	if j.Procs <= 0 && j.ReqProcs > 0 {
		j.Procs = j.ReqProcs
	}
	if j.ReqProcs <= 0 && j.Procs > 0 {
		j.ReqProcs = j.Procs
	}
	if j.Submit < 0 {
		j.Submit = 0
	}
	return j
}

// replayableSWF reports whether a record can drive the simulator: it
// needs a positive run time (cancelled or corrupt records have -1 or 0)
// and a positive processor count after the -1 defaults were applied.
// The run time must also be finite, and small enough that the 1.5x
// fallback estimate is — "inf" parses as a number, and a job of infinite
// work never completes — and the submit time must be a finite number,
// or the job has no place in a stream ordered by it. Unreplayable
// records are skipped and counted.
func replayableSWF(j SWFJob) bool {
	return j.RunTime > 0 && j.RunTime <= math.MaxFloat64/swfEstimateFactor && j.Procs > 0 &&
		!math.IsNaN(j.Submit) && !math.IsInf(j.Submit, 1)
}

// swfEstimateFactor scales a run time into the walltime estimate of a
// record that requests none (or less than it ran).
const swfEstimateFactor = 1.5

const jobChunk = 136 // sched.Jobs per converter chunk; see TestJobChunkFitsSizeClass

// SWFOptions controls how an SWF trace maps onto the simulator.
type SWFOptions struct {
	// CoresPerNode converts processor counts to node counts (default 36,
	// Quartz's).
	CoresPerNode int
	// MaxNodes drops jobs larger than the simulated machine (default 512).
	MaxNodes int
	// MaxJobs truncates the trace (0 = no limit).
	MaxJobs int
	// Seed drives application assignment for jobs with unknown
	// executables.
	Seed int64
}

func (o *SWFOptions) fill() {
	if o.CoresPerNode <= 0 {
		o.CoresPerNode = 36
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 512
	}
}

// swfConverter turns SWF records into submittable jobs, one at a time.
// It carries the state the conversion needs across records — the trace
// start offset, the application-assignment random stream, the emitted-
// job count, and the monotonic submit clamp — so the lazy stream
// (NewSWFStream) and the tests' materializing loader run the identical
// per-record code and therefore produce identical job streams.
type swfConverter struct {
	opts     SWFOptions
	profiles []apps.Profile
	rng      *sim.Source
	started  bool
	t0       float64
	lastAt   float64
	n        int
	jobs     []sched.Job  // unused tail of the chunk jobs are carved from
	free     []*sched.Job // records handed back (SWFStream.Recycle), reused first
}

func newSWFConverter(opts SWFOptions) *swfConverter {
	opts.fill()
	return &swfConverter{
		opts:     opts,
		profiles: apps.Defaults(),
		rng:      sim.NewSource(opts.Seed).Derive("swf"),
	}
}

// done reports whether the MaxJobs truncation point has been reached.
func (c *swfConverter) done() bool {
	return c.opts.MaxJobs > 0 && c.n >= c.opts.MaxJobs
}

// convert maps one record to a submittable job. ok is false when the
// record is dropped (larger than the simulated machine). Submit times
// are offset from the first record's and clamped monotonically
// non-decreasing — archive traces are submit-ordered, but a clamped
// stream is what lets the replay feeder deliver jobs lazily without
// scheduling into the past.
func (c *swfConverter) convert(sj SWFJob) (SubmittedJob, bool) {
	if !c.started {
		c.started = true
		c.t0 = sj.Submit
	}
	nodes := (sj.Procs + c.opts.CoresPerNode - 1) / c.opts.CoresPerNode
	if nodes < 1 {
		nodes = 1
	}
	if nodes > c.opts.MaxNodes {
		return SubmittedJob{}, false
	}
	// Stable application assignment: same executable -> same profile.
	var profile apps.Profile
	if sj.ExecutableID > 0 {
		profile = c.profiles[sj.ExecutableID%len(c.profiles)]
	} else {
		profile = c.profiles[c.rng.Intn(len(c.profiles))]
	}
	// A requested time that is unknown, shorter than the run, or not a
	// finite number ("nan" and "inf" parse) gives way to the fallback.
	estimate := sj.ReqTime
	if !(estimate >= sj.RunTime) || math.IsInf(estimate, 1) {
		estimate = sj.RunTime * swfEstimateFactor
	}
	at := sj.Submit - c.t0
	if at < c.lastAt {
		at = c.lastAt
	}
	c.lastAt = at
	var j *sched.Job
	if n := len(c.free); n > 0 {
		j, c.free = c.free[n-1], c.free[:n-1]
	} else {
		if len(c.jobs) == 0 {
			// jobChunk jobs fill a 32 KiB allocation. A replay that hands
			// records back carves about as many as it has jobs live.
			c.jobs = make([]sched.Job, jobChunk)
		}
		j, c.jobs = &c.jobs[0], c.jobs[1:]
	}
	*j = sched.Job{
		ID:       c.n,
		App:      profile,
		Nodes:    nodes,
		BaseWork: sj.RunTime,
		Estimate: estimate,
	}
	c.n++
	return SubmittedJob{Job: j, SubmitAt: at}, true
}
