package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rush/internal/cluster"
	"rush/internal/workload"
)

// replayFixture loads the archive-style SWF excerpt the workload package
// uses for its loader differentials.
func replayFixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "excerpt.swf"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureJobs converts the fixture through the in-memory reference
// loader.
func fixtureJobs(t *testing.T, opts workload.SWFOptions) []workload.SubmittedJob {
	t.Helper()
	trace, err := workload.ParseSWF(bytes.NewReader(replayFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.FromSWF(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestReplayStreamingMatchesInMemory is the loader differential through
// the whole stack: a replay fed lazily from SWF bytes must be
// bit-identical — trace bytes and all aggregates — to one fed from the
// slice the in-memory reference loader (workload.ParseSWF + FromSWF)
// materializes, across seeds.
func TestReplayStreamingMatchesInMemory(t *testing.T) {
	raw := replayFixture(t)
	for _, seed := range []int64{1, 2, 3} {
		opts := workload.SWFOptions{Seed: seed}
		cfg := Config{Trace: true, Metrics: true}

		streamed, err := ReplayStream("swf-stream", workload.NewSWFStream(bytes.NewReader(raw), opts),
			Baseline, nil, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inMemory, err := ReplayStream("swf-stream", workload.NewSliceStream(fixtureJobs(t, opts)),
			Baseline, nil, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(streamed.Trace, inMemory.Trace) {
			t.Fatalf("seed %d: streaming and in-memory traces differ", seed)
		}
		sd, md := *streamed, *inMemory
		sd.Trace, md.Trace = nil, nil
		sd.Metrics, md.Metrics = nil, nil
		if !reflect.DeepEqual(sd, md) {
			t.Fatalf("seed %d: summaries differ:\n stream %+v\n memory %+v", seed, sd, md)
		}
	}
}

// eagerTrace is the test-local oracle for the front-band feeder: it
// pre-queues one ordinary submit event per job before the run, as the
// retired eager driver did, drains, and returns the trace.
func eagerTrace(t *testing.T, name string, jobs []workload.SubmittedJob, seed int64, cfg Config) []byte {
	t.Helper()
	cfg.fill()
	env, err := newTrialEnv(name, Baseline, nil, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sj := range jobs {
		sj := sj
		env.eng.At(sj.SubmitAt, func() { env.s.Submit(sj.Job) })
	}
	for len(env.s.Completed()) < len(jobs) {
		if !env.eng.Step() {
			t.Fatalf("event queue drained with %d/%d jobs incomplete", len(env.s.Completed()), len(jobs))
		}
	}
	env.noise.Stop()
	if err := env.tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	return env.traceBuf.Bytes()
}

// TestReplayMatchesEagerDriver pins the front-band feeder design: the
// one driver, through both of its entry points, must reproduce the
// trace of a run whose submissions were all pre-queued as ordinary
// events (eagerTrace), even though it injects them mid-run from a
// re-armed event. Any tie-break divergence between a lazily fed
// submission and a simulation event at the same instant shows up here.
func TestReplayMatchesEagerDriver(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		opts := workload.SWFOptions{Seed: seed}
		// The fixture's longest job runs ~7.2 simulated hours; give
		// RunTrialJobs headroom past its 6h default.
		cfg := Config{Trace: true, MaxSimTime: 48 * 3600}

		// Each run gets its own jobs: the scheduler mutates them.
		eager := eagerTrace(t, "swf-replay", fixtureJobs(t, opts), seed, cfg)
		trial, err := RunTrialJobs("swf-replay", fixtureJobs(t, opts), Baseline, nil, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := ReplayStream("swf-replay", workload.NewSliceStream(fixtureJobs(t, opts)), Baseline, nil, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(eager, trial.Trace) {
			t.Fatalf("seed %d: RunTrialJobs trace diverges from the pre-queued run's:\n%s", seed,
				firstTraceDiff(eager, trial.Trace))
		}
		if !bytes.Equal(eager, sum.Trace) {
			t.Fatalf("seed %d: ReplayStream trace diverges from the pre-queued run's:\n%s", seed,
				firstTraceDiff(eager, sum.Trace))
		}
		if sum.Jobs != len(trial.Jobs) || sum.FailedJobs != trial.FailedJobs {
			t.Fatalf("seed %d: job counts differ: %d/%d vs %d/%d",
				seed, sum.Jobs, sum.FailedJobs, len(trial.Jobs), trial.FailedJobs)
		}
		if math.Abs(sum.Makespan-trial.Makespan) > 1e-9 {
			t.Fatalf("seed %d: makespan %v vs %v", seed, sum.Makespan, trial.Makespan)
		}
		// The streaming aggregates must agree with recomputing them from
		// RunTrialJobs' records.
		var wait Welford
		for _, r := range trial.Jobs {
			if !r.Failed {
				wait.Add(r.Wait)
			}
		}
		if math.Abs(sum.Wait.Mean-wait.Mean) > 1e-9 || sum.Wait.N != wait.N {
			t.Fatalf("seed %d: wait aggregate %v/%d vs %v/%d",
				seed, sum.Wait.Mean, sum.Wait.N, wait.Mean, wait.N)
		}
	}
}

// TestReplayPruningDifferential pins the retention contract: pruning
// exists purely to bound memory, so keeping extra telemetry history
// must not change a single event. (The prune cadence itself stays
// fixed — prune events share the engine's sequence counter, so a
// different interval legitimately relabels event ties.)
func TestReplayPruningDifferential(t *testing.T) {
	raw := replayFixture(t)
	run := func(keep float64) []byte {
		sum, err := ReplayStream("swf-prune",
			workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{Seed: 4}),
			Baseline, nil, 4, Config{Trace: true, pruneKeep: keep})
		if err != nil {
			t.Fatal(err)
		}
		return sum.Trace
	}
	tight := run(0)              // default: 3 windows
	wide := run(100 * 24 * 3600) // effectively unpruned
	if !bytes.Equal(tight, wide) {
		t.Fatalf("retention width changed the schedule:\n%s", firstTraceDiff(tight, wide))
	}
}

// openQuartzSWF renders days of light-load submissions for full Quartz:
// exponential interarrivals with a 31.5 s mean, the seven executables in
// rotation on 1 to 16 nodes for 40 to 80 minutes, so about a quarter of
// the machine is busy and nothing queues.
func openQuartzSWF(days float64) (raw []byte, jobs int) {
	rng := rand.New(rand.NewSource(23))
	cores := cluster.Quartz().CoresPerNode
	var buf bytes.Buffer
	for at := 0.0; ; jobs++ {
		at += rng.ExpFloat64() * 31.5
		if at > days*86400 {
			return buf.Bytes(), jobs
		}
		procs := cores << (jobs / 7 % 5)
		run := 2400 + rng.Intn(2400)
		fmt.Fprintf(&buf, "%d %d -1 %d %d -1 -1 %d %d -1 1 1 1 %d 1 -1 -1 -1\n",
			jobs+1, int64(at), run, procs, procs, run*3/2, jobs%7+1)
	}
}

// TestReplayAllocationBudget is the allocation guard of the replay
// pipeline end to end: three simulated days on Quartz under Baseline,
// completed jobs discarded as ReplayStream always does. What a job still
// costs is its share of a sched.Job chunk and of a node-list chunk; the
// machine, the rings and the queues are paid once. A history epoch, a
// completion closure, a job or a node list allocated per job each put
// this near 1.
func TestReplayAllocationBudget(t *testing.T) {
	topo := cluster.Quartz()
	raw, jobs := openQuartzSWF(3)
	allocs := testing.AllocsPerRun(1, func() {
		sum, err := ReplayStream("swf-allocs",
			workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{
				CoresPerNode: topo.CoresPerNode, MaxNodes: topo.Nodes, Seed: 1}),
			Baseline, nil, 1, Config{Topo: topo})
		if err != nil || sum.Jobs != jobs {
			t.Fatalf("replayed %v of %d jobs, err %v", sum, jobs, err)
		}
	})
	if perJob := allocs / float64(jobs); perJob > 0.25 {
		t.Fatalf("%.0f allocations for %d jobs = %.3f per job, budget 0.25", allocs, jobs, perJob)
	}
}

// TestBackwardsStreamIsRejected pins the feeder's ordering contract:
// workload.Generate does not emit jobs in submit order, so feeding its
// output to ReplayStream unsorted must fail naming the first job that
// goes backwards (submitting it late would under-report its wait),
// while RunTrialJobs, which sorts its slice, must accept it.
func TestBackwardsStreamIsRejected(t *testing.T) {
	spec := shortSpec()
	jobs, err := workload.Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	backwards := -1
	for i := 1; i < len(jobs) && backwards < 0; i++ {
		if jobs[i].SubmitAt < jobs[i-1].SubmitAt {
			backwards = jobs[i].Job.ID
		}
	}
	if backwards < 0 {
		t.Fatal("fixture is sorted: workload.Generate now emits jobs in submit order")
	}
	_, err = ReplayStream(spec.Name, workload.NewSliceStream(jobs), Baseline, nil, 7, Config{})
	want := "job " + itoa(backwards) + " submits at"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReplayStream on an unsorted stream: got error %v, want one containing %q", err, want)
	}

	jobs, _ = workload.Generate(spec, 7)
	tr, err := RunTrialJobs(spec.Name, jobs, Baseline, nil, 7, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Jobs {
		if r.Submit != jobs[r.ID].SubmitAt {
			t.Fatalf("job %d submitted at %v, want its SubmitAt %v", r.ID, r.Submit, jobs[r.ID].SubmitAt)
		}
	}
}

// TestReplayHeapSampling checks the MemSample plumbing end to end: the
// gauges exist in the snapshot and the summary carries a peak.
func TestReplayHeapSampling(t *testing.T) {
	raw := replayFixture(t)
	sum, err := ReplayStream("swf-mem",
		workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{Seed: 1}),
		Baseline, nil, 1, Config{Metrics: true, MemSample: 60})
	if err != nil {
		t.Fatal(err)
	}
	if sum.PeakHeapBytes == 0 {
		t.Fatal("heap sampler never ran")
	}
	found := map[string]bool{}
	for _, g := range sum.Metrics.Gauges {
		found[g.Name] = true
	}
	if !found["sim_heap_inuse"] || !found["replay_peak_rss"] {
		t.Fatalf("memory gauges missing from snapshot: %+v", sum.Metrics.Gauges)
	}
}

// TestReplayCanaryPolicy exercises the gated path (no predictor needed)
// through the streaming driver and checks gate counters surface.
func TestReplayCanaryPolicy(t *testing.T) {
	raw := replayFixture(t)
	sum, err := ReplayStream("swf-canary",
		workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{Seed: 2}),
		Canary, nil, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.GateEvaluations == 0 {
		t.Fatal("canary gate never consulted")
	}
	if sum.Jobs != sum.Submitted {
		t.Fatalf("drain incomplete: %d/%d", sum.Jobs, sum.Submitted)
	}
}

// firstTraceDiff renders the first differing line of two JSONL traces.
func firstTraceDiff(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + itoa(i+1) + ":\n a: " + al[i] + "\n b: " + bl[i]
		}
	}
	return "traces differ in length: " + itoa(len(al)) + " vs " + itoa(len(bl)) + " lines"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
