package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"rush/internal/stats"
)

// A workload is one set of inputs the benchmark runs. Set-up turns a
// seed into a unit; everything the unit replays (SWF bytes, request
// scripts, feature vectors, the trained predictor) is built there, so
// the measured region holds only the program under test.
type workloadSpec struct {
	name string
	why  string
	// setups is how many times a run repeats set-up to report its median
	// as setup_s. Cheap set-ups (about a second) repeat so that one
	// descheduled slice does not decide the number; the ten-second
	// predictor training of paper-trials runs once.
	setups int
	// setup builds the unit. mini selects the miniature inputs the tests
	// use (3 simulated days, 500 requests, one ADAA pair); the benchmark
	// proper never sets it.
	setup func(seed int64, mini bool) (unit, error)
}

// A unit is a workload after set-up: one fixed, deterministic piece of
// work the harness repeats.
type unit interface {
	// ops is how many operations one repetition completes: jobs for the
	// simulator workloads, request frames answered for serve-wire.
	ops() int
	// rep runs the unit once and checks its output. traced selects the
	// instrumented form (metrics registry on, timing decorators in
	// place); end-to-end numbers always come from traced == false.
	rep(traced bool) repResult
	// close releases what set-up acquired (server, socket).
	close()
}

// repResult is the outcome of one repetition's correctness checks.
type repResult struct {
	// failed is how many of the repetition's operations count as failed:
	// zero, or all of them when an invariant broke.
	failed int
	// digest summarises the repetition's output; it must be identical in
	// every repetition of a run.
	digest uint64
	// why names the first invariant that broke.
	why string
}

// engineSeed seeds the program's own random streams (noise phases, run
// jitter, probe noise) in every simulator workload. The run's -seed
// drives the generated inputs only: with the engine seeded from it too,
// one seed draws a calm machine and the next a congested one, the work
// per job differs by a third between runs of the same code, and no bound
// could tell a regression from a draw.
const engineSeed = 4242

// warmupReps is how many untimed repetitions set-up ends with, so that
// pools, caches and the heap reach their steady size before timing.
const warmupReps = 3

// minTimedReps is the fewest repetitions a time-bounded run measures.
const minTimedReps = 20

// maxTimedReps bounds the preallocated duration buffer.
const maxTimedReps = 4096

// loop is the timed region's state. step is the whole per-repetition
// harness cost: two clock reads, one append into a preallocated slice
// and a few compares (TestLoopBodyDoesNotAllocate pins it at zero
// allocations against a stub unit).
type loop struct {
	durs    []float64
	failed  int
	why     string
	digest  uint64
	started bool
}

func newLoop() *loop { return &loop{durs: make([]float64, 0, maxTimedReps)} }

func (l *loop) step(u unit, traced bool) {
	t0 := time.Now()
	r := u.rep(traced)
	d := time.Since(t0).Seconds()
	l.durs = append(l.durs, d)
	if !l.started {
		l.started, l.digest = true, r.digest
	}
	if r.failed == 0 && r.digest != l.digest {
		r.failed, r.why = u.ops(), "output digest differs from the run's first repetition"
	}
	if r.failed > 0 {
		l.failed += r.failed
		if l.why == "" {
			l.why = r.why
		}
	}
}

// measurement is what one timed loop produced.
type measurement struct {
	opsPerRep int
	durs      []float64
	failed    int
	why       string
	mallocs   uint64 // MemStats.Mallocs delta over the timed reps
	bytes     uint64 // MemStats.TotalAlloc delta over the timed reps
	heapSys   uint64 // MemStats.HeapSys after the last rep
	gcCycles  uint32
	gcCPU     float64 // GC CPU seconds over the timed reps
	totalCPU  float64 // all CPU seconds available to the process over them
}

func (m *measurement) attempted() int { return m.opsPerRep * len(m.durs) }

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// measure runs the timed loop: reps repetitions when reps > 0, otherwise
// as many as fit in seconds (at least minTimedReps). The allocation
// counters are read once before and once after, outside any repetition.
func measure(u unit, traced bool, reps int, seconds float64) measurement {
	return measureAtLeast(u, traced, reps, seconds, minTimedReps)
}

// measureAtLeast is measure with the time-bounded floor given.
func measureAtLeast(u unit, traced bool, reps int, seconds float64, minReps int) measurement {
	l := newLoop()
	runtime.GC()
	var before, after runtime.MemStats
	gc0, cpu0 := readCPU()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		l.step(u, traced)
		n := len(l.durs)
		if n == maxTimedReps {
			break
		}
		if reps > 0 {
			if n >= reps {
				break
			}
			continue
		}
		elapsed := time.Since(start).Seconds()
		if n >= minReps && elapsed+elapsed/float64(n) > seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	gc1, cpu1 := readCPU()
	return measurement{
		opsPerRep: u.ops(),
		durs:      l.durs,
		failed:    l.failed,
		why:       l.why,
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		heapSys:   after.HeapSys,
		gcCycles:  after.NumGC - before.NumGC,
		gcCPU:     gc1 - gc0,
		totalCPU:  cpu1 - cpu0,
	}
}

// prepared is a unit ready for timing, with what its set-up cost.
type prepared struct {
	u      unit
	setupS float64 // median over the workload's set-up repetitions
}

// prepare runs the workload's set-up (input generation, training, server
// start, warm-up repetitions) w.setups times, keeping the last unit, and
// reports the median duration. A warm-up repetition that fails its
// checks fails set-up: nothing is timed on a broken unit.
func prepare(w workloadSpec, seed int64, mini bool) (prepared, error) {
	n := w.setups
	if mini || n < 1 {
		n = 1
	}
	times := make([]float64, 0, n)
	var p prepared
	for i := 0; i < n; i++ {
		if p.u != nil {
			p.u.close()
			p.u = nil
			runtime.GC()
		}
		t0 := time.Now()
		u, err := w.setup(seed, mini)
		if err != nil {
			return prepared{}, err
		}
		warm := warmupReps
		if mini {
			warm = 1
		}
		for k := 0; k < warm; k++ {
			if r := u.rep(false); r.failed > 0 {
				u.close()
				return prepared{}, fmt.Errorf("%s: warm-up repetition failed its checks: %s", w.name, r.why)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		p.u = u
	}
	p.setupS = stats.Median(times)
	return p, nil
}
