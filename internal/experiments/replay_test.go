package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/cluster"
	"rush/internal/faults"
	"rush/internal/sched"
	"rush/internal/workload"
)

// replayFixture loads the archive-style SWF excerpt the workload package
// uses for its loader differentials.
func replayFixture(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "excerpt.swf"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureJobs drains the fixture's SWF stream into a slice. That the
// stream yields what the materializing loader yields is proven in
// workload (TestStreamMatchesInMemoryLoader, FuzzSWFStream).
func fixtureJobs(t *testing.T, opts workload.SWFOptions) []workload.SubmittedJob {
	t.Helper()
	return drainSWF(t, replayFixture(t), opts)
}

// drainSWF materializes an SWF stream: every job in a record of its own,
// none handed back.
func drainSWF(t *testing.T, raw []byte, opts workload.SWFOptions) []workload.SubmittedJob {
	t.Helper()
	jobs, err := materialize(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// materialize drains raw's SWF stream into a slice, up to its first
// error.
func materialize(raw []byte, opts workload.SWFOptions) ([]workload.SubmittedJob, error) {
	st := workload.NewSWFStream(bytes.NewReader(raw), opts)
	var jobs []workload.SubmittedJob
	for {
		j, ok, err := st.Next()
		if !ok {
			return jobs, err
		}
		jobs = append(jobs, j)
	}
}

// TestReplayStreamingMatchesInMemory pins that how the jobs arrive does
// not matter to a replay: one fed lazily from SWF bytes must be
// bit-identical — trace bytes and all aggregates — to one fed from the
// same jobs materialized into a slice first, across seeds.
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
	for env.s.CompletedCount() < len(jobs) {
		if !env.eng.Step() {
			t.Fatalf("event queue drained with %d/%d jobs incomplete", env.s.CompletedCount(), len(jobs))
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

// replayCost replays days of openQuartzSWF on Quartz under Baseline
// through a recycling SWFStream and returns the job count and the
// fewest heap objects and bytes one replay allocated.
func replayCost(t *testing.T, days float64) (jobs int, objects, size uint64) {
	topo := cluster.Quartz()
	raw, jobs := openQuartzSWF(days)
	objects, size = alloctest.Count(2, nil, func() {
		sum, err := ReplayStream("swf-allocs",
			workload.NewSWFStream(bytes.NewReader(raw), workload.SWFOptions{
				CoresPerNode: topo.CoresPerNode, MaxNodes: topo.Nodes, Seed: 1}),
			Baseline, nil, 1, Config{Topo: topo})
		if err != nil || sum.Jobs != jobs {
			t.Fatalf("replayed %v of %d jobs, err %v", sum, jobs, err)
		}
	})
	return jobs, objects, size
}

// TestReplayAllocationBudget is the allocation guard of the replay
// pipeline end to end: three simulated days on Quartz under Baseline,
// completed jobs discarded as ReplayStream always does. The machine, the
// rings, the queues and the records and node lists of the jobs live at
// once are paid once; a finished job's record and node list carry a
// later job. A history epoch, a completion closure, a job or a node list
// allocated per job each put the count near 1 and the bytes past 100
// per job.
func TestReplayAllocationBudget(t *testing.T) {
	jobs, objects, size := replayCost(t, 3)
	if perJob := float64(objects) / float64(jobs); perJob > 0.1 {
		t.Errorf("%d allocations for %d jobs = %.3f per job, budget 0.1", objects, jobs, perJob)
	}
	if perJob := float64(size) / float64(jobs); perJob > 64 {
		t.Errorf("%d bytes for %d jobs = %.1f per job, budget 64", size, jobs, perJob)
	}
}

// TestReplayAllocationsFlatInJobs pins that a warm replay allocates
// nothing per job: doubling the simulated days, and with them the jobs,
// may add at most a few allocations (a longer trace can reach a higher
// peak of live jobs) and no more bytes than a few records.
func TestReplayAllocationsFlatInJobs(t *testing.T) {
	jobs, objects, size := replayCost(t, 3)
	jobs2, objects2, size2 := replayCost(t, 6)
	if objects2 > objects+16 || size2 > size+16<<10 {
		t.Fatalf("%d jobs allocate %d objects and %d bytes, %d jobs %d and %d: more than 16 objects or 16 KiB more",
			jobs, objects, size, jobs2, objects2, size2)
	}
}

// churnSWF renders 600 jobs of 1 to 16 nodes for 10 to 50 minutes at
// 23 s mean interarrival: more work than Pod512 runs, so jobs queue, the
// canary gate vetoes, and under node failures every ten node-hours jobs
// are killed, requeued, and some exhaust their retries.
func churnSWF() []byte {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	at := 0.0
	for i := range 600 {
		at += rng.ExpFloat64() * 23
		procs := 36 * (1 + rng.Intn(16))
		run := 600 + rng.Intn(2400)
		fmt.Fprintf(&buf, "%d %d -1 %d %d -1 -1 %d %d -1 1 1 1 %d 1 -1 -1 -1\n",
			i+1, int64(at), run, procs, procs, run*3/2, i%7+1)
	}
	return buf.Bytes()
}

// recordCounter forwards a recycling SWFStream and counts the distinct
// records it yields.
type recordCounter struct {
	*workload.SWFStream
	seen map[*sched.Job]bool
}

func (r *recordCounter) Next() (workload.SubmittedJob, bool, error) {
	j, ok, err := r.SWFStream.Next()
	if ok {
		r.seen[j.Job] = true
	}
	return j, ok, err
}

// TestRecycledRecordsMatchFreshOnes is the record-hygiene differential:
// a replay whose stream hands finished records back for later jobs must
// be bit-identical, trace and summary, to one over the same jobs each in
// a record of its own. The stream has canary vetoes and overrides, node
// failures, requeues and retry-exhausted failures, so a record is
// reused after every kind of job end with every field a job can dirty.
func TestRecycledRecordsMatchFreshOnes(t *testing.T) {
	raw := churnSWF()
	opts := workload.SWFOptions{Seed: 3}
	cfg := Config{Trace: true, Faults: faults.Config{NodeMTBF: 10 * 3600, NodeMTTR: 600}}
	st := &recordCounter{workload.NewSWFStream(bytes.NewReader(raw), opts), map[*sched.Job]bool{}}
	recycled, err := ReplayStream("churn", st, Canary, nil, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ReplayStream("churn", workload.NewSliceStream(drainSWF(t, raw, opts)), Canary, nil, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recycled.Trace, fresh.Trace) {
		t.Fatalf("recycled and fresh records trace differently:\n%s", firstTraceDiff(recycled.Trace, fresh.Trace))
	}
	rs, fs := *recycled, *fresh
	rs.Trace, fs.Trace = nil, nil
	if !reflect.DeepEqual(rs, fs) {
		t.Fatalf("summaries differ:\n recycled %+v\n fresh    %+v", rs, fs)
	}
	if rs.GateVetoes == 0 || rs.ThresholdOverrides == 0 || rs.FailedJobs == 0 || rs.JobKills <= rs.FailedJobs {
		t.Fatalf("%d vetoes, %d overrides, %d kills, %d failed jobs: the stream must exercise every job end",
			rs.GateVetoes, rs.ThresholdOverrides, rs.JobKills, rs.FailedJobs)
	}
	if len(st.seen) > rs.Jobs/2 {
		t.Fatalf("%d records carried %d jobs: the stream did not reuse them", len(st.seen), rs.Jobs)
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
// gauges exist in the snapshot and the summary carries a peak. The
// sampler's and the machine's counters are there too, under every
// policy, and the machine sweeps at most once per filesystem change.
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
	if !found["sim_heap_inuse"] || !found["telemetry_store_bytes"] || !found["replay_peak_rss"] {
		t.Fatalf("memory gauges missing from snapshot: %+v", sum.Metrics.Gauges)
	}
	counts := map[string]float64{}
	for _, c := range sum.Metrics.Counters {
		found[c.Name] = true
		counts[c.Name] = c.Value
	}
	for _, name := range []string{"telemetry_windows_total", "telemetry_window_reuses_total", "telemetry_rows_computed_total",
		"machine_fs_changes_total", "machine_fs_sweeps_total"} {
		if !found[name] {
			t.Fatalf("counter %s missing from snapshot: %+v", name, sum.Metrics.Counters)
		}
	}
	if ch, sw := counts["machine_fs_changes_total"], counts["machine_fs_sweeps_total"]; sw > ch {
		t.Fatalf("%v filesystem sweeps for %v changes", sw, ch)
	}
}

// TestReplayYearHeapBounded pins the bounded-memory contract that lets a
// year of submissions replay in a few megabytes: doubling the simulated
// horizon must not grow the driver's peak heap, because completed jobs
// are discarded, telemetry history is pruned, and the trace buffer is
// flushed in batches. The stream is openQuartzSWF's, read back from a
// file as rush-replay reads one, so the bytes of the trace are not part
// of the heap being measured; the per-day heap samples feeding
// PeakHeapBytes make 30 and 60 days comparable.
func TestReplayYearHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon replay")
	}
	topo := cluster.Quartz()
	peak := func(days float64) uint64 {
		path := filepath.Join(t.TempDir(), "quartz.swf")
		raw, jobs := openQuartzSWF(days)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		runtime.GC() // the generated bytes are garbage from here on
		f, err := workload.OpenSWF(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sum, err := ReplayStream("replay-heap",
			workload.NewSWFStream(f, workload.SWFOptions{
				CoresPerNode: topo.CoresPerNode, MaxNodes: topo.Nodes, Seed: 7}),
			Baseline, nil, 7, Config{
				Topo:       topo,
				MaxSimTime: 2 * days * 86400,
				Metrics:    true,
				MemSample:  86400,
			})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Jobs != jobs {
			t.Fatalf("%v days: completed %d of %d jobs", days, sum.Jobs, jobs)
		}
		return sum.PeakHeapBytes
	}
	half, full := peak(30), peak(60)
	// Allow slack for GC timing noise; what must not happen is the
	// linear growth a retained job history would show.
	if float64(full) > 1.5*float64(half) {
		t.Fatalf("peak heap grows with horizon: %d MB at 30 days vs %d MB at 60 days",
			half>>20, full>>20)
	}
	t.Logf("peak heap: %d MB at 30 days, %d MB at 60 days", half>>20, full>>20)
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
