package sched

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/faults"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sim"
)

// ---------------------------------------------------------------------
// Timeline unit tests: the persistent breakpoint slice must match the
// clamped, sorted snapshot the reference path rebuilds every pass.
// ---------------------------------------------------------------------

// TestTimelineMatchesSnapshot drives a timeline through a random
// add/remove/promote history and checks after every operation that its
// entries equal a brute-force model: per-entry release times clamped by
// every promote since insertion, sorted by (t, n).
func TestTimelineMatchesSnapshot(t *testing.T) {
	rng := sim.NewSource(11).Derive("timeline")
	var tl timeline
	type model struct {
		j *Job
		t float64
		n int
	}
	var ref []model
	now := 0.0
	nextID := 0
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(4); {
		case op <= 1 || len(ref) == 0: // add (biased so the set grows)
			j := &Job{ID: nextID, Nodes: 1 + rng.Intn(32)}
			nextID++
			// Some entries land in the past relative to the next promote
			// so clamping is exercised.
			end := now + rng.Uniform(-50, 200)
			tl.add(j, end)
			ref = append(ref, model{j: j, t: end, n: j.Nodes})
		case op == 2: // remove
			k := rng.Intn(len(ref))
			tl.remove(ref[k].j)
			ref = append(ref[:k], ref[k+1:]...)
		default: // promote
			now += rng.Uniform(0, 60)
			tl.promote(now)
			for i := range ref {
				if ref[i].t < now {
					ref[i].t = now
				}
			}
		}
		if tl.len() != len(ref) {
			t.Fatalf("step %d: timeline has %d entries, model %d", step, tl.len(), len(ref))
		}
		// The model in (t, n) order must match the maintained slice.
		want := append([]model(nil), ref...)
		for i := 1; i < len(want); i++ { // insertion sort by (t, n)
			e := want[i]
			m := i
			for m > 0 && (want[m-1].t > e.t || (want[m-1].t == e.t && want[m-1].n > e.n)) {
				want[m] = want[m-1]
				m--
			}
			want[m] = e
		}
		for i := range want {
			got := tl.ents[i]
			if got.t != want[i].t || got.n != want[i].n {
				t.Fatalf("step %d entry %d: timeline (%v,%d), model (%v,%d)",
					step, i, got.t, got.n, want[i].t, want[i].n)
			}
		}
	}
}

// TestTimelineReservationMatchesReferenceWalk cross-checks the
// timeline's EASY reservation against an independent implementation of
// the reference walk (clamp, sort, accumulate) over the same running
// set, across random states.
func TestTimelineReservationMatchesReferenceWalk(t *testing.T) {
	rng := sim.NewSource(23).Derive("resv")
	for trial := 0; trial < 500; trial++ {
		var tl timeline
		now := rng.Uniform(0, 1000)
		var rels []release
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			j := &Job{ID: i, Nodes: 1 + rng.Intn(16)}
			end := now + rng.Uniform(-100, 400)
			tl.add(j, end)
			clamped := end
			if clamped < now {
				clamped = now
			}
			rels = append(rels, release{t: clamped, n: j.Nodes})
		}
		tl.promote(now)
		sortReleases(rels)
		free := rng.Intn(8)
		need := 1 + rng.Intn(48)

		wantShadow, wantAvail := now, free
		for _, r := range rels {
			if wantAvail >= need {
				break
			}
			wantAvail += r.n
			wantShadow = r.t
		}
		wantExtra := wantAvail - need
		if wantAvail < need {
			wantShadow, wantExtra = math.Inf(1), free
		}

		shadow, extra := tl.reservation(need, free, now)
		if shadow != wantShadow || extra != wantExtra {
			t.Fatalf("trial %d: reservation (%v,%d), reference walk (%v,%d)",
				trial, shadow, extra, wantShadow, wantExtra)
		}
	}
}

// TestTimelineFillProfileMatchesReference checks that the pooled profile
// built from the timeline is field-for-field the profile the reference
// conservative path builds from its clamped snapshot.
func TestTimelineFillProfileMatchesReference(t *testing.T) {
	rng := sim.NewSource(31).Derive("prof")
	var prof profile
	for trial := 0; trial < 300; trial++ {
		var tl timeline
		now := rng.Uniform(0, 500)
		var rels []release
		for i, n := 0, rng.Intn(15); i < n; i++ {
			j := &Job{ID: i, Nodes: 1 + rng.Intn(12)}
			end := now + rng.Uniform(-80, 300)
			tl.add(j, end)
			clamped := end
			if clamped < now {
				clamped = now
			}
			rels = append(rels, release{t: clamped, n: j.Nodes})
		}
		tl.promote(now)
		freeNow := rng.Intn(20)
		tl.fillProfile(&prof, now, freeNow)
		sortReleases(rels)
		want := newProfileFromSorted(now, freeNow, rels)
		if !reflect.DeepEqual(prof.times, want.times) || !reflect.DeepEqual(prof.free, want.free) {
			t.Fatalf("trial %d: pooled profile %v/%v, reference %v/%v",
				trial, prof.times, prof.free, want.times, want.free)
		}
	}
}

// ---------------------------------------------------------------------
// Differential scheduler tests: twin schedulers — one running the
// timeline pass, one the reference scanner of reference_test.go — run
// identical workloads and must produce byte-identical traces and
// identical metrics.
// ---------------------------------------------------------------------

// schedRun is everything observable about one scheduler run: the full
// JSONL event trace, the metrics snapshot, the sticky error, and the
// completion order.
type schedRun struct {
	trace     string
	snap      *obs.Snapshot
	completed []string
	err       error
}

// twinSpec describes one differential workload.
type twinSpec struct {
	seed    int64
	nodes   int
	jobs    int
	mode    BackfillMode
	gate    gateMaker
	r1, r2  Policy
	faults  bool    // scripted node kill/restore cycles
	honesty float64 // lowest estimate factor; < 1 makes jobs overrun
	// inject attaches a fault injector (node churn, telemetry loss, model
	// outages) and stack runs the paper's application mix beside the
	// noise job, so that contention moves and a RUSH gate has something
	// to veto: the trial stack of internal/experiments, built here.
	inject faults.Config
	stack  bool
	// perturb is handed to the reference scanner (refScanner.perturb).
	perturb func([]*Job)
}

// gateMaker builds one half's gate on that half's machine and injector.
type gateMaker func(*machine.Machine, *faults.Injector) Gate

// twinHorizon bounds a twin run that fails to drain; every workload here
// finishes well inside it.
const twinHorizon = 1e5

// runTwinHalf executes spec on a fresh machine through the timeline pass
// or the reference scanner and captures every observable output. The
// workload, fault script, and machine construction are derived only from
// spec, so the pass body is the sole difference between the two halves.
func runTwinHalf(t *testing.T, spec twinSpec, reference bool) schedRun {
	t.Helper()
	eng := sim.New(spec.seed)
	m, err := machine.New(eng, cluster.Topology{Nodes: spec.nodes, PodSize: spec.nodes, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	profiles := []apps.Profile{steadyApp()}
	if spec.stack {
		profiles = apps.Defaults()
		if _, err := m.StartNoise(apps.DefaultNoise()); err != nil {
			t.Fatal(err)
		}
	}
	inj, err := faults.Attach(m, spec.inject, eng.Source().Derive("faults"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	s, err := NewScheduler(Config{
		Machine:  m,
		Primary:  spec.r1,
		Backfill: spec.r2,
		Gate:     spec.gate(m, inj),
		Mode:     spec.mode,
		Observer: obs.New(obs.NewTracer(&buf), reg),
		Faults:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		useReference(s).perturb = spec.perturb
	}
	s.RetryInterval = 15
	s.VetoCooldown = 15
	s.RequeueBackoff = 20

	rng := sim.NewSource(spec.seed).Derive("twin-workload")
	lo := spec.honesty
	if lo == 0 {
		lo = 1.0
	}
	for i := 0; i < spec.jobs; i++ {
		work := rng.Uniform(10, 250)
		j := &Job{
			ID:       i,
			App:      profiles[i%len(profiles)],
			Nodes:    1 + rng.Intn(spec.nodes/2),
			BaseWork: work,
			Estimate: work * rng.Uniform(lo, 2.0),
		}
		delay := rng.Uniform(0, 900)
		m.Eng.At(delay, func() { s.Submit(j) })
	}
	if spec.faults {
		// Deterministic kill/restore waves on a rotating node: any job
		// holding the node is killed and requeued with backoff.
		for k := 0; k < 8; k++ {
			node := cluster.NodeID(k % spec.nodes)
			down := 100 + float64(k)*130
			m.Eng.At(down, func() { m.FailNode(node) })
			m.Eng.At(down+40, func() { m.RestoreNode(node) })
		}
	}
	// The noise job and the injector's node lives never run out of events:
	// stop when the workload has drained.
	for s.CompletedCount() < spec.jobs && eng.Now() < twinHorizon && eng.Step() {
	}

	run := schedRun{trace: buf.String(), snap: reg.Snapshot(), err: s.Err()}
	for _, j := range s.Completed() {
		run.completed = append(run.completed,
			fmt.Sprintf("%d@%v-%v w%v f%v", j.ID, j.StartTime, j.EndTime, j.WaitTime(), j.Failed))
	}
	return run
}

// scrubWallClock zeroes the wall-clock pass counter, the only metric
// that legitimately differs between two identical runs.
func scrubWallClock(s *obs.Snapshot) {
	for i := range s.Counters {
		if s.Counters[i].Name == "sched_pass_wall_us" {
			s.Counters[i].Value = 0
		}
	}
}

// diffTwin runs spec through both pass bodies, requires every observable
// output to agree and returns the timeline half.
func diffTwin(t *testing.T, name string, spec twinSpec) schedRun {
	t.Helper()
	fast := runTwinHalf(t, spec, false)
	ref := runTwinHalf(t, spec, true)
	if fast.err != nil || ref.err != nil {
		t.Fatalf("%s: sticky errors fast=%v ref=%v", name, fast.err, ref.err)
	}
	if len(fast.completed) != spec.jobs || !reflect.DeepEqual(fast.completed, ref.completed) {
		t.Fatalf("%s: completion records diverge\nfast: %v\nref:  %v", name, fast.completed, ref.completed)
	}
	if fast.trace != ref.trace {
		t.Fatalf("%s: traces diverge (fast %d bytes, ref %d bytes)", name, len(fast.trace), len(ref.trace))
	}
	scrubWallClock(fast.snap)
	scrubWallClock(ref.snap)
	if !reflect.DeepEqual(fast.snap, ref.snap) {
		t.Fatalf("%s: metrics diverge\nfast: %+v\nref:  %+v", name, fast.snap, ref.snap)
	}
	return fast
}

// alwaysGate and vetoGate build the two model-free gates of the matrix.
func alwaysGate(*machine.Machine, *faults.Injector) Gate { return AlwaysStart{} }

func vetoGate(n int) gateMaker {
	return func(*machine.Machine, *faults.Injector) Gate { return &countGate{n: n} }
}

// TestFastPassMatchesReferenceMatrix is the differential acceptance
// test: for every combination of seed × backfill mode × gate × fault
// scenario, the timeline pass and the reference scanner must produce
// byte-identical traces, identical completion records, and identical
// metrics. Estimate factors below 1 force overruns so timeline promotion
// is exercised.
//
// The scenarios are a scripted kill/restore wave and the five rows of
// the robustness sweep (experiments.DefaultFaultScenarios: clean, node
// churn, telemetry loss, model outage, all at once), the latter on the
// trial stack: the paper's application mix, the noise job, a fault
// injector and, as the third gate, RUSH over a trained model with the
// injector's outage hook, so vetoes, fail-open decisions, kills and
// requeues all reach both pass bodies.
func TestFastPassMatchesReferenceMatrix(t *testing.T) {
	seeds := []int64{101, 202, 303, 404, 505}
	modes := []BackfillMode{EASYBackfill, ConservativeBackfill, NoBackfill}
	model := trainedToyModel(t, gateMachine())
	gates := []struct {
		name string
		mk   gateMaker
	}{
		{"always", alwaysGate},
		{"veto2", vetoGate(2)},
		{"rush", func(m *machine.Machine, inj *faults.Injector) Gate {
			g := NewRUSH(m, model)
			g.ModelDown = inj.ModelDown()
			return g
		}},
	}
	churn := faults.Config{NodeMTBF: 4 * 3600, NodeMTTR: 900}
	loss := faults.Config{TelemetryLoss: 0.2, FreezeProb: 0.05}
	all := faults.Config{NodeMTBF: 4 * 3600, NodeMTTR: 900, TelemetryLoss: 0.2, FreezeProb: 0.05, ModelOutage: 0.3}
	scenarios := []struct {
		name     string
		scripted bool
		stack    bool
		inject   faults.Config
	}{
		{name: "plain"},
		{name: "scripted-kills", scripted: true},
		{name: "clean", stack: true},
		{name: "node-churn", stack: true, inject: churn},
		{name: "telemetry-loss", stack: true, inject: loss},
		{name: "model-outage", stack: true, inject: faults.Config{ModelOutage: 0.3}},
		{name: "all-faults", stack: true, inject: all},
	}
	var vetoes, degraded, requeued uint64
	for _, seed := range seeds {
		for _, mode := range modes {
			for _, g := range gates {
				for _, sc := range scenarios {
					jobs := 80
					if g.name == "rush" {
						// A model decision costs a telemetry window, a
						// thousand times a scheduling pass: the RUSH rows
						// are the stack scenarios (the steady app never
						// congests, so elsewhere there is nothing to veto),
						// at half length, on every seed under EASY and on
						// two under the ablation modes.
						if !sc.stack || (mode != EASYBackfill && seed > 202) {
							continue
						}
						jobs = 40
					}
					name := fmt.Sprintf("s%d-%s-%s-%s", seed, mode, g.name, sc.name)
					fast := diffTwin(t, name, twinSpec{
						seed: seed, nodes: 64, jobs: jobs,
						mode: mode, gate: g.mk,
						r1: FCFS{}, r2: SJF{},
						faults: sc.scripted, honesty: 0.6,
						stack: sc.stack, inject: sc.inject,
					})
					if g.name == "rush" {
						vetoes += counter(fast.snap, "gate_vetoes_total")
						degraded += counter(fast.snap, "gate_degraded_total")
					}
					requeued += counter(fast.snap, "sched_jobs_requeued_total")
				}
			}
		}
	}
	if vetoes == 0 || degraded == 0 || requeued == 0 {
		t.Fatalf("degenerate matrix: %d RUSH vetoes, %d fail-open decisions, %d requeues", vetoes, degraded, requeued)
	}
}

// counter reads one counter out of a metrics snapshot (0 when absent).
func counter(s *obs.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return uint64(c.Value)
		}
	}
	return 0
}

// TestFastPassMatchesReferenceSJFPrimary covers the policy permutation
// the matrix does not: an SJF main queue (so maintained-order inserts
// land mid-queue, not at the tail) with FCFS backfill order.
func TestFastPassMatchesReferenceSJFPrimary(t *testing.T) {
	for _, seed := range []int64{7, 77} {
		diffTwin(t, fmt.Sprintf("sjf-primary-s%d", seed), twinSpec{
			seed: seed, nodes: 48, jobs: 70,
			mode: EASYBackfill, gate: alwaysGate,
			r1: SJF{}, r2: FCFS{},
			faults: true, honesty: 0.5,
		})
	}
}

// TestReferenceReadsMembershipOnly shows that the oracle cannot inherit
// a fault of the order maintenance it checks: a reference scanner whose
// copy of the queue has two entries swapped before every scan (the copy,
// never the scheduler's own queue or q2, which tryStart still searches)
// picks the same starts as one reading the untouched copy, under every
// backfill mode and with an SJF main queue. What it reads is who is
// queued, not where.
func TestReferenceReadsMembershipOnly(t *testing.T) {
	swapped := 0
	for _, mode := range []BackfillMode{EASYBackfill, ConservativeBackfill, NoBackfill} {
		for _, r1 := range []Policy{FCFS{}, SJF{}} {
			spec := twinSpec{
				seed: 303, nodes: 64, jobs: 80,
				mode: mode, gate: vetoGate(1),
				r1: r1, r2: SJF{},
				faults: true, honesty: 0.6,
			}
			plain := runTwinHalf(t, spec, true)
			spec.perturb = func(q []*Job) {
				if n := len(q); n > 1 {
					q[0], q[n-1] = q[n-1], q[0]
					swapped++
				}
			}
			perturbed := runTwinHalf(t, spec, true)
			if plain.err != nil || perturbed.err != nil {
				t.Fatalf("%s/%s: sticky errors %v, %v", mode, r1.Name(), plain.err, perturbed.err)
			}
			if plain.trace != perturbed.trace {
				t.Fatalf("%s/%s: the reference scanner read the order of the queue it was handed", mode, r1.Name())
			}
		}
	}
	if swapped == 0 {
		t.Fatal("no scan ever saw two queued jobs: nothing was swapped")
	}
}

// ---------------------------------------------------------------------
// Property test: random job streams for at least 10k scheduling passes.
// ---------------------------------------------------------------------

// TestFastPassPropertyRandomStreams is the long-haul property test:
// randomized workloads (job sizes, walltimes, dishonest estimates,
// submission bursts, node kill/restore cycles driving requeues, veto
// gates, random policies and backfill modes) run side-by-side through
// the fast and reference schedulers until at least 10,000 scheduling
// passes have been compared, diffing the full event traces — submits,
// starts, backfills, finishes, requeues, failures — not just start
// orders.
func TestFastPassPropertyRandomStreams(t *testing.T) {
	modes := []BackfillMode{EASYBackfill, ConservativeBackfill, NoBackfill}
	policies := []Policy{FCFS{}, SJF{}}
	var passes uint64
	const wantPasses = 10000
	maxIters := 60
	iter := 0
	for ; iter < maxIters && passes < wantPasses; iter++ {
		seed := int64(9000 + iter)
		meta := sim.NewSource(seed).Derive("meta")
		spec := twinSpec{
			seed:    seed,
			nodes:   16 << meta.Intn(3), // 16, 32, or 64 nodes
			jobs:    60 + meta.Intn(120),
			mode:    modes[meta.Intn(len(modes))],
			r1:      policies[meta.Intn(len(policies))],
			r2:      policies[meta.Intn(len(policies))],
			faults:  meta.Intn(2) == 0,
			honesty: meta.Uniform(0.4, 1.2),
		}
		vetoes := meta.Intn(3) // 0 = AlwaysStart
		spec.gate = alwaysGate
		if vetoes > 0 {
			spec.gate = vetoGate(vetoes)
		}
		name := fmt.Sprintf("iter%d-s%d-%s", iter, seed, spec.mode)
		passes += counter(diffTwin(t, name, spec).snap, "sched_passes_total")
	}
	if passes < wantPasses {
		t.Fatalf("only %d passes compared across %d iterations, want >= %d", passes, iter, wantPasses)
	}
}

// ---------------------------------------------------------------------
// Deep-queue allocation contract.
// ---------------------------------------------------------------------

// deepBlockedScheduler builds the deep steady state the scalability
// claim is about: a 512-node machine whose free nodes are too few for
// any of the `depth` queued jobs, so every pass computes the head
// reservation and scans (skips) the whole backfill queue without
// starting anything.
func deepBlockedScheduler(depth int) *Scheduler {
	m := testMachine(512)
	s, err := NewScheduler(Config{Machine: m})
	if err != nil {
		panic(err)
	}
	blocker := job(0, 500, 1e8) // holds 500 of 512 nodes, never finishes
	if err := s.Submit(blocker); err != nil {
		panic(err)
	}
	rng := sim.NewSource(77).Derive("deep")
	for i := 1; i <= depth; i++ {
		work := rng.Uniform(50, 500)
		j := &Job{ID: i, App: steadyApp(), Nodes: 16 + rng.Intn(128), BaseWork: work, Estimate: work * 1.2}
		if err := s.Submit(j); err != nil {
			panic(err)
		}
	}
	return s
}

// TestDeepQueuePassZeroAllocs extends the zero-alloc contract to queue
// depth: a steady-state pass over a 10k-deep blocked queue with a nil
// observer performs zero heap allocations on the fast path.
func TestDeepQueuePassZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("deep queue setup is slow under -short")
	}
	s := deepBlockedScheduler(10000)
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Pass(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("deep-queue Pass allocated %.1f times per run with a nil observer; want 0", allocs)
	}
}

// TestConservativePassZeroAllocs pins the pooled-profile contract: a
// steady-state conservative-backfill pass with a nil observer allocates
// nothing once the profile arrays have warmed up.
func TestConservativePassZeroAllocs(t *testing.T) {
	m := testMachine(16)
	s, err := NewScheduler(Config{Machine: m, Mode: ConservativeBackfill})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(job(0, 16, 1e6))
	for i := 1; i <= 6; i++ {
		s.Submit(job(i, 4*(1+i%3), 100))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Pass(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("conservative Pass allocated %.1f times per run with a nil observer; want 0", allocs)
	}
}

// TestSkipTableShiftMatchesRecompute pins the incremental skip-table
// maintenance: after every insert and every removal, at positions drawn
// over the whole queue, the table equals the one recomputed from q2 from
// scratch — through growth past several block boundaries, a drain to
// empty and growth again. Node counts and estimates are drawn once from
// many values, so that a block's minimum is held by one member and an
// arriving element often sets a new one, and once from few, so that
// minima are tied and the departing element often holds one.
func TestSkipTableShiftMatchesRecompute(t *testing.T) {
	type shape struct {
		backfill Policy
		values   int
	}
	for _, sh := range []shape{{FCFS{}, 400}, {SJF{}, 400}, {FCFS{}, 4}, {SJF{}, 4}} {
		backfill := sh.backfill
		s, err := NewScheduler(Config{Machine: testMachine(512), Backfill: backfill})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewSource(31).Derive("skiptable")
		var queued []*Job
		check := func(step int, op string) {
			t.Helper()
			gotN := append([]int(nil), s.blkNodes...)
			gotE := append([]float64(nil), s.blkEst...)
			s.refreshBlocks()
			if !slices.Equal(gotN, s.blkNodes) || !slices.Equal(gotE, s.blkEst) {
				t.Fatalf("%T/%d values, step %d after %s (queue %d): table\n nodes %v\n est   %v\nrecomputed\n nodes %v\n est   %v",
					backfill, sh.values, step, op, len(s.q2), gotN, gotE, s.blkNodes, s.blkEst)
			}
		}
		id := 0
		// Grow to ~6 blocks, churn, drain, grow again.
		phase := func(steps int, pInsert float64) {
			for i := 0; i < steps; i++ {
				if len(queued) == 0 || rng.Float64() < pInsert {
					id++
					est := float64(100 * (1 + rng.Intn(sh.values)))
					j := &Job{ID: id, App: steadyApp(), Nodes: 1 + rng.Intn(sh.values), BaseWork: est / 1.2, Estimate: est,
						SubmitTime: float64(rng.Intn(50))}
					s.enqueue(j)
					queued = append(queued, j)
					check(i, "insert")
				} else {
					k := rng.Intn(len(queued))
					s.fastRemove(queued[k])
					queued[k] = queued[len(queued)-1]
					queued = queued[:len(queued)-1]
					check(i, "remove")
				}
			}
		}
		phase(600, 0.7)
		phase(2000, 0.5)
		phase(1500, 0.1)
		phase(400, 0.8)
		if len(s.q2) != len(queued) {
			t.Fatalf("q2 holds %d jobs, expected %d", len(s.q2), len(queued))
		}
	}
}
