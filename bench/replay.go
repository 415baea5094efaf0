package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"rush/internal/cluster"
	"rush/internal/experiments"
	"rush/internal/workload"
)

// The two replay workloads stream the same kind of trace through the
// rush-replay user path (SWF bytes -> workload.NewSWFStream ->
// experiments.ReplayStream, Baseline policy, full Quartz) at two
// offered loads. At 31.5 s mean interarrival a quarter of the machine is
// busy, nothing queues, and the cost is per-job bookkeeping spread over
// every layer; at 10 s the offered load exceeds capacity, the machine stays
// full, and the cost moves into contention re-integration and event
// re-timing. A change that helps one regime and hurts the other shows
// as a gain on one workload and a loss on the other.

// replayShape fixes one replay workload's trace.
type replayShape struct {
	name         string
	interarrival float64 // mean seconds between submissions
	days         float64 // simulated days of submissions
	miniDays     float64 // the tests' horizon
}

var (
	replayOpenShape      = replayShape{name: "replay-open", interarrival: 31.5, days: 30, miniDays: 3}
	replaySaturatedShape = replayShape{name: "replay-saturated", interarrival: 10, days: 1, miniDays: 0.25}
)

// swfApp is the job shape the generator gives one SWF executable ID.
// The SWF converter maps executable e to the e-th (mod 7) default
// application profile; base and sizes below follow that profile's
// 16-node base time and its class's allocation sizes, as the capacity
// stream of replay_bench_test.go does. They are generator constants:
// the program only ever sees the rendered trace.
type swfApp struct {
	exe   int
	base  float64
	sizes []int
}

var (
	computeSizes = []int{2, 4, 8, 16, 32}
	networkSizes = []int{1, 2, 4, 8}
	ioSizes      = []int{1, 2}
	swfApps      = []swfApp{
		{exe: 7, base: 185, sizes: computeSizes}, // Kripke
		{exe: 1, base: 150, sizes: computeSizes}, // AMG
		{exe: 2, base: 240, sizes: networkSizes}, // Laghos
		{exe: 3, base: 130, sizes: networkSizes}, // SWFFT
		{exe: 4, base: 200, sizes: computeSizes}, // PENNANT
		{exe: 5, base: 260, sizes: networkSizes}, // sw4lite
		{exe: 6, base: 300, sizes: ioSizes},      // LBANN
	}
)

// swfTrace is a rendered trace with what the checks need to know of it.
type swfTrace struct {
	raw        []byte
	jobs       int
	lastSubmit float64 // submit offset of the last job from the first
	// nodeSeconds is the trace's offered work: nodes x run time summed
	// over jobs, as the program will read them.
	nodeSeconds float64
}

// genSWF renders the capacity-computing stream as Standard Workload
// Format bytes: exponential interarrivals, the seven proxy applications
// in rotation at hour-scale run times (12 to 24 times the base), user
// estimates 1.3 to 1.8 times the run time. The same seed gives the same
// bytes; math/rand is used so that the inputs do not depend on the
// program's own random source.
func genSWF(seed int64, interarrival, days float64, coresPerNode int) swfTrace {
	rng := rand.New(rand.NewSource(seed))
	horizon := days * 86400
	buf := make([]byte, 0, int(horizon/interarrival*72)+1024)
	buf = append(buf, "; rush bench capacity stream\n"...)
	var tr swfTrace
	var first int64 = -1
	at := 0.0
	for i := 0; ; i++ {
		at += rng.ExpFloat64() * interarrival
		if at > horizon {
			break
		}
		app := swfApps[i%len(swfApps)]
		nodes := app.sizes[(i/len(swfApps))%len(app.sizes)]
		run := app.base * (12 + 12*rng.Float64())
		est := run * (1.3 + 0.5*rng.Float64())
		submit := int64(at)
		if first < 0 {
			first = submit
		}
		tr.lastSubmit = float64(submit - first)
		procs := int64(nodes * coresPerNode)
		// Fields: id submit wait runtime procs cpu mem reqprocs reqtime
		// reqmem status uid gid executable queue partition prev think.
		// SWF run times are whole seconds; +1 keeps them positive.
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, submit, 10)
		buf = append(buf, " -1 "...)
		buf = strconv.AppendInt(buf, int64(run)+1, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, procs, 10)
		buf = append(buf, " -1 -1 "...)
		buf = strconv.AppendInt(buf, procs, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(est)+1, 10)
		buf = append(buf, " -1 1 1 1 "...)
		buf = strconv.AppendInt(buf, int64(app.exe), 10)
		buf = append(buf, " 1 -1 -1 -1\n"...)
		tr.jobs++
		tr.nodeSeconds += float64(nodes) * float64(int64(run)+1)
	}
	tr.raw = buf
	return tr
}

// timedStream is the traced run's decorator around the job stream: it
// counts every Next exactly and times one call in sixteen, so that the
// clock reads cost the traced repetition a fraction of a per cent.
type timedStream struct {
	inner     workload.JobStream
	calls     int
	sampled   int
	sampledNs int64
}

const streamSampleMask = 15

func (t *timedStream) Next() (workload.SubmittedJob, bool, error) {
	t.calls++
	if t.calls&streamSampleMask != 0 {
		return t.inner.Next()
	}
	t0 := time.Now()
	j, ok, err := t.inner.Next()
	t.sampledNs += time.Since(t0).Nanoseconds()
	t.sampled++
	return j, ok, err
}

// selfSeconds scales the sampled time to all calls.
func (t *timedStream) selfSeconds() float64 {
	if t.sampled == 0 {
		return 0
	}
	return float64(t.sampledNs) / 1e9 * float64(t.calls) / float64(t.sampled)
}

type replayUnit struct {
	shape replayShape
	topo  cluster.Topology
	trace swfTrace

	// reader and stream are reused across repetitions so that the
	// harness itself adds nothing to the heap the metrics see.
	reader *bytes.Reader
	stream timedStream

	// last is the most recent repetition's summary; the traced run
	// reads the program's metrics registry and the simulated statistics
	// from it.
	last *experiments.ReplaySummary
}

func setupReplay(shape replayShape) func(seed int64, mini bool) (unit, error) {
	return func(seed int64, mini bool) (unit, error) {
		days := shape.days
		if mini {
			days = shape.miniDays
		}
		topo := cluster.Quartz()
		tr := genSWF(seed, shape.interarrival, days, topo.CoresPerNode)
		if tr.jobs == 0 {
			return nil, fmt.Errorf("%s: generated an empty trace", shape.name)
		}
		return &replayUnit{
			shape: shape, topo: topo, trace: tr,
			reader: bytes.NewReader(tr.raw),
		}, nil
	}
}

func (u *replayUnit) ops() int { return u.trace.jobs }
func (u *replayUnit) close()   {}

func (u *replayUnit) rep(traced bool) repResult {
	u.reader.Reset(u.trace.raw)
	swf := workload.NewSWFStream(u.reader, workload.SWFOptions{
		CoresPerNode: u.topo.CoresPerNode,
		MaxNodes:     u.topo.Nodes,
		Seed:         engineSeed,
	})
	var stream workload.JobStream = swf
	if traced {
		u.stream = timedStream{inner: swf}
		stream = &u.stream
	}
	sum, err := experiments.ReplayStream(u.shape.name, stream, experiments.Baseline, nil, engineSeed,
		experiments.Config{Topo: u.topo, Metrics: traced})
	if err != nil {
		return repResult{failed: u.ops(), why: err.Error()}
	}
	u.last = sum
	if why := checkReplay(sum, u.trace); why != "" {
		return repResult{failed: u.ops(), why: why}
	}
	return repResult{digest: replayDigest(sum)}
}

// checkReplay applies the invariants a drained replay must satisfy. No
// golden values: a later behaviour fix elsewhere must not be blocked by
// the benchmark.
func checkReplay(sum *experiments.ReplaySummary, tr swfTrace) string {
	switch {
	case sum.Submitted != tr.jobs:
		return fmt.Sprintf("submitted %d of the trace's %d jobs", sum.Submitted, tr.jobs)
	case sum.Jobs != sum.Submitted:
		return fmt.Sprintf("completed %d of %d submitted jobs", sum.Jobs, sum.Submitted)
	case sum.FailedJobs != 0:
		return fmt.Sprintf("%d failed jobs on a fault-free run", sum.FailedJobs)
	case sum.Makespan < tr.lastSubmit:
		return fmt.Sprintf("makespan %v ends before the last submission at %v", sum.Makespan, tr.lastSubmit)
	case sum.Run.N != sum.Jobs || sum.Wait.N != sum.Jobs:
		return fmt.Sprintf("aggregates cover %d run times and %d waits for %d jobs", sum.Run.N, sum.Wait.N, sum.Jobs)
	case !(sum.Run.Mean > 0) || !(sum.Wait.Mean >= 0):
		return fmt.Sprintf("run mean %v or wait mean %v out of range", sum.Run.Mean, sum.Wait.Mean)
	case sum.GateEvaluations != 0 || sum.GateVetoes != 0:
		return "baseline replay consulted a gate"
	}
	return ""
}

func replayDigest(sum *experiments.ReplaySummary) uint64 {
	return digestWords(
		uint64(sum.Jobs), math.Float64bits(sum.Makespan),
		math.Float64bits(sum.Wait.Mean), math.Float64bits(sum.Run.Mean),
		math.Float64bits(sum.Slowdown.Mean), uint64(sum.HighVariation),
		uint64(sum.GateEvaluations), uint64(sum.GateVetoes))
}

// digestWords folds words into one FNV-1a style digest without
// allocating.
func digestWords(words ...uint64) uint64 {
	return foldWords(fnvOffset, words...)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldWords(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
