package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rush/internal/apps"
	"rush/internal/sched"
	"rush/internal/sim"
)

// Standard Workload Format (SWF) support. SWF is the de-facto archive
// format for HPC job logs (the Parallel Workloads Archive); supporting it
// lets RUSH replay real cluster traces instead of the synthetic Table II
// streams, and lets simulation results feed standard analysis tools.
//
// Each SWF record is 18 whitespace-separated fields; unknown values are
// -1 and comment lines start with ';'. Two loaders exist: ParseSWF /
// FromSWF build the whole trace in memory (the differential reference),
// and SWFScanner / NewSWFStream in stream.go yield records lazily off an
// io.Reader so a year-scale trace never has to fit in memory. Both paths
// interpret records through the same code (interpretSWF, swfConverter),
// so they produce identical job streams by construction — pinned by the
// differential tests in stream_test.go.

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
// the trace start. Both the in-memory and the streaming loader build
// records through this one function.
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

// swfSpace reports whether r separates SWF fields: a blank, a tab or a
// carriage return, the set the streaming scanner splits on. Any other
// byte is part of a field in both loaders, so they accept the same
// lines.
func swfSpace(r rune) bool { return r == ' ' || r == '\t' || r == '\r' }

// replayableSWF reports whether a record can drive the simulator: it
// needs a positive run time (cancelled or corrupt records have -1 or 0)
// and a positive processor count after the -1 defaults were applied.
// The run time must also be finite, and small enough that the 1.5x
// fallback estimate is — "inf" parses as a number, and a job of infinite
// work never completes — and the submit time must be a finite number,
// or the job has no place in a stream ordered by it. Unreplayable
// records are skipped — both loaders count them so callers can report
// how much of a trace was usable.
func replayableSWF(j SWFJob) bool {
	return j.RunTime > 0 && j.RunTime <= math.MaxFloat64/swfEstimateFactor && j.Procs > 0 &&
		!math.IsNaN(j.Submit) && !math.IsInf(j.Submit, 1)
}

// swfEstimateFactor scales a run time into the walltime estimate of a
// record that requests none (or less than it ran).
const swfEstimateFactor = 1.5

// ParseSWF reads a whole SWF trace into memory. Header comments and
// blank lines are skipped; short data lines are padded with -1 (unknown)
// per the archive convention provided at least the first four fields are
// present; malformed lines surface as line-numbered errors. Records that
// cannot be replayed (no positive run time or processor count) are
// dropped. It is the slice-building reference the streaming loader in
// stream.go is differenced against.
func ParseSWF(r io.Reader) ([]SWFJob, error) {
	var jobs []SWFJob
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.FieldsFunc(sc.Text(), swfSpace)
		if len(fields) == 0 || fields[0][0] == ';' {
			continue
		}
		if len(fields) < swfMinFields || len(fields) > swfFields {
			return nil, fmt.Errorf("workload: swf line %d: %d fields, want %d-%d", line, len(fields), swfMinFields, swfFields)
		}
		var fv [swfFields]float64
		for i := range fv {
			fv[i] = -1
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: swf line %d field %d: %w", line, i+1, err)
			}
			fv[i] = v
		}
		j := interpretSWF(&fv)
		if !replayableSWF(j) {
			continue
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: swf scan: %w", err)
	}
	return jobs, nil
}

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
// job count, and the monotonic submit clamp — so the in-memory loader
// (FromSWF) and the lazy stream (NewSWFStream) run the identical
// per-record code and therefore produce identical job streams.
type swfConverter struct {
	opts     SWFOptions
	profiles []apps.Profile
	rng      *sim.Source
	started  bool
	t0       float64
	lastAt   float64
	n        int
	jobs     []sched.Job // unused tail of the chunk jobs are carved from
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
	if len(c.jobs) == 0 {
		// 136 jobs fill a 32 KiB allocation. A chunk is collected once
		// every job carved from it is unreachable: a streaming replay
		// holds about one chunk more than its live jobs.
		c.jobs = make([]sched.Job, 136)
	}
	j := &c.jobs[0]
	c.jobs = c.jobs[1:]
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

// FromSWF converts an SWF trace into a submittable job stream. Run times
// become contention-free base work; requested times become the
// backfiller's estimates (falling back to 1.5x the run time when absent);
// each job is assigned a proxy-application profile keyed on its SWF
// executable ID so re-runs of the same executable share a profile.
// Submit times are offset from the first record's and clamped monotonic.
func FromSWF(trace []SWFJob, opts SWFOptions) ([]SubmittedJob, error) {
	conv := newSWFConverter(opts)
	var out []SubmittedJob
	for _, sj := range trace {
		if conv.done() {
			break
		}
		if j, ok := conv.convert(sj); ok {
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: swf trace contains no replayable jobs")
	}
	return out, nil
}

// WriteSWF writes completed jobs as an SWF trace (one record per job,
// unknown fields as -1) so results can feed standard workload-analysis
// tools. Jobs are identified by their scheduler IDs; the executable ID
// indexes the default application list.
func WriteSWF(w io.Writer, jobs []*sched.Job, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		for _, line := range strings.Split(strings.TrimRight(header, "\n"), "\n") {
			if _, err := fmt.Fprintf(bw, "; %s\n", line); err != nil {
				return err
			}
		}
	}
	appIndex := map[string]int{}
	for i, name := range apps.Names() {
		appIndex[name] = i + 1
	}
	for _, j := range jobs {
		exe := appIndex[j.App.Name]
		_, err := fmt.Fprintf(bw, "%d %.0f %.0f %.2f %d -1 -1 %d %.0f -1 1 -1 -1 %d -1 -1 -1 -1\n",
			j.ID+1, j.SubmitTime, j.WaitTime(), j.RunTime(),
			j.Nodes, j.Nodes, j.Estimate, exe)
		if err != nil {
			return fmt.Errorf("workload: write swf: %w", err)
		}
	}
	return bw.Flush()
}
