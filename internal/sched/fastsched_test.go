package sched

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/faults"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sim"
	"rush/internal/telemetry"
)

// ---------------------------------------------------------------------
// Timeline unit tests: the persistent breakpoint slice must match the
// clamped, sorted snapshot the reference path rebuilds every pass.
// ---------------------------------------------------------------------

// timelineShape is one random history TestTimelineMatchesSnapshot
// drives a timeline through.
type timelineShape struct {
	name       string
	steps      int
	add, rm    int     // out of 8: the share of adds and of removes; the rest promote
	estimate   float64 // adds land up to this far after the pass time
	advance    float64 // a promote moves the clock up to this far
	grid       float64 // when > 0, estimates and advances are whole multiples of it
	sizes      int     // node counts are drawn from 1..sizes
	minOverdue int     // the overdue group must reach this size
	minTie     int     // on each side of the group boundary, some tie run must reach this length
}

// TestTimelineMatchesSnapshot drives a timeline through random
// add/remove/promote histories the way the scheduler does — tryStart
// adds StartTime+Estimate within a pass, so never before the last
// promote time, and some adds land exactly on it — and checks after
// every operation that its entries, read through their effective
// release time, equal a brute-force model: each entry's time clamped to
// the last promote time, sorted by (t, n). Every entry must also be the
// one its job added, so a removal that takes a tied neighbour's entry
// fails at once even though the times read the same. One history keeps
// a few dozen entries; in another estimates are short and the clock
// fast, so the overdue group passes a thousand entries while adds and
// removes go on around it; in the third times sit on a coarse grid and
// node counts are few, so tie runs of three and more form on both sides
// of the group boundary. Every history removes from both the overdue
// group and the entries after it.
func TestTimelineMatchesSnapshot(t *testing.T) {
	for _, sh := range []timelineShape{
		{name: "shallow", steps: 2000, add: 4, rm: 2, estimate: 200, advance: 60, sizes: 32},
		{name: "deep-overdue", steps: 4000, add: 5, rm: 1, estimate: 30, advance: 60, sizes: 32, minOverdue: 1000},
		{name: "ties", steps: 3000, add: 4, rm: 3, estimate: 40, advance: 20, grid: 10, sizes: 3, minTie: 4},
	} {
		t.Run(sh.name, func(t *testing.T) {
			rng := sim.NewSource(11).Derive("timeline").Derive(sh.name)
			draw := func(hi float64) float64 {
				if sh.grid > 0 {
					return sh.grid * float64(rng.Intn(int(hi/sh.grid)+1))
				}
				return rng.Uniform(0, hi)
			}
			var tl timeline
			type model struct {
				j  *Job
				t0 float64 // the time the job was added at
				t  float64 // t0 clamped to the last promote time
				n  int
			}
			var ref, want []model
			byJob := map[*Job]model{}
			now := 0.0
			nextID, atPass, maxDue := 0, 0, 0
			var maxTie [2]int // longest tie run in the group, and after it
			var rmGroup, rmRest int
			for step := 0; step < sh.steps; step++ {
				switch op := rng.Intn(8); {
				case op < sh.add || len(ref) == 0:
					j := &Job{ID: nextID, Nodes: 1 + rng.Intn(sh.sizes)}
					nextID++
					end := now + draw(sh.estimate)
					if rng.Intn(8) == 0 {
						end = now // StartTime+Estimate rounded to the pass time
					}
					if end == now {
						atPass++
					}
					tl.add(j, end)
					ref = append(ref, model{j: j, t0: end, t: end, n: j.Nodes})
				case op < sh.add+sh.rm:
					k := rng.Intn(len(ref))
					if ref[k].t0 <= tl.passT {
						rmGroup++
					} else {
						rmRest++
					}
					tl.remove(ref[k].j, ref[k].t0)
					ref = append(ref[:k], ref[k+1:]...)
				default:
					now += draw(sh.advance)
					tl.promote(now)
					for i := range ref {
						ref[i].t = max(ref[i].t, now)
					}
				}
				maxDue = max(maxDue, tl.due)
				if tl.len() != len(ref) {
					t.Fatalf("step %d: timeline has %d entries, model %d", step, tl.len(), len(ref))
				}
				// The model in (t, n) order must match the maintained
				// slice; entries that tie on both are interchangeable.
				want = append(want[:0], ref...)
				slices.SortStableFunc(want, func(a, b model) int {
					if c := cmp.Compare(a.t, b.t); c != 0 {
						return c
					}
					return cmp.Compare(a.n, b.n)
				})
				clear(byJob)
				for _, m := range ref {
					byJob[m.j] = m
				}
				run := 0
				for i := range want {
					e := tl.ents[i]
					got := e.t
					if i < tl.due {
						got = tl.passT // the overdue group's release time
					}
					if got != want[i].t || e.n != want[i].n {
						t.Fatalf("step %d entry %d: timeline (%v,%d), model (%v,%d)",
							step, i, got, e.n, want[i].t, want[i].n)
					}
					m, ok := byJob[e.job]
					if !ok || m.t0 != e.t || m.n != e.n {
						t.Fatalf("step %d entry %d: (%v,%d) is not the entry its job added", step, i, e.t, e.n)
					}
					delete(byJob, e.job)
					// A tie run is read within one segment: by n in the
					// group, by (t, n) after it.
					if prev := tl.ents[max(i-1, 0)]; i > 0 && i != tl.due && prev.n == e.n && (i < tl.due || prev.t == e.t) {
						run++
					} else {
						run = 1
					}
					seg := 0
					if i >= tl.due {
						seg = 1
					}
					maxTie[seg] = max(maxTie[seg], run)
				}
			}
			if maxDue < sh.minOverdue || atPass < 10 || min(maxTie[0], maxTie[1]) < sh.minTie {
				t.Fatalf("overdue group peaked at %d entries (want >= %d), %d adds at the pass time, longest tie runs %v (want >= %d)",
					maxDue, sh.minOverdue, atPass, maxTie, sh.minTie)
			}
			if rmGroup < 5 || rmRest < 5 {
				t.Fatalf("%d removals from the overdue group and %d after it; want 5 or more of each", rmGroup, rmRest)
			}
			t.Logf("overdue peak %d, %d adds at the pass time, longest tie runs %v, removals %d in the group and %d after it",
				maxDue, atPass, maxTie, rmGroup, rmRest)
		})
	}
}

// TestTimelinePromoteZeroAllocs pins that a pass's promote allocates
// nothing, over a group of 2,000 overdue entries that new arrivals join.
func TestTimelinePromoteZeroAllocs(t *testing.T) {
	var tl timeline
	now := 0.0
	setup := func() {
		tl = timeline{}
		now = 0
		for i := 0; i < 4000; i++ {
			tl.add(&Job{ID: i, Nodes: 1 + i%32}, float64(i))
		}
		tl.promote(2000)
		now = 2000
	}
	objects, _ := alloctest.Count(3, setup, func() {
		for i := 0; i < 100; i++ {
			now += 10
			tl.promote(now)
		}
	})
	if tl.due != 3001 {
		t.Fatalf("overdue group holds %d entries, want 3001", tl.due)
	}
	if objects != 0 {
		t.Fatalf("100 promotes allocated %d times; want 0", objects)
	}
}

// TestTimelineReservationMatchesReferenceWalk cross-checks the
// timeline's EASY reservation against the reference scanner's walk
// (clamp, sort, walkReleases) over the same running set, across random
// states.
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

		wantShadow, wantExtra := walkReleases(rels, need, free, now)
		shadow, extra := tl.reservation(need, free, now)
		if shadow != wantShadow || extra != wantExtra {
			t.Fatalf("trial %d: reservation (%v,%d), reference walk (%v,%d)",
				trial, shadow, extra, wantShadow, wantExtra)
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
	gate    gateMaker
	r1      Policy
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
	tracer := obs.NewBatchedTracer(&buf)
	reg := obs.NewRegistry()
	s, err := NewScheduler(Config{
		Machine:  m,
		Primary:  spec.r1,
		Gate:     spec.gate(m, inj),
		Observer: obs.New(tracer, reg),
		Faults:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		useReference(s).perturb = spec.perturb
	}
	s.retryInterval = 15
	s.vetoCooldown = 15
	s.requeueBackoff = 20

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

	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	run := schedRun{trace: buf.String(), snap: reg.Snapshot(), err: s.Err()}
	for _, j := range s.completed {
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
// test: for every combination of seed × gate × fault scenario, the
// timeline pass and the reference scanner must produce
// byte-identical traces, identical completion records, and identical
// metrics. Estimate factors below 1 force overruns so timeline promotion
// is exercised.
//
// The scenarios are a scripted kill/restore wave and five fault
// settings (clean, node churn, telemetry loss, model outage, all at
// once), the latter on the
// trial stack: the paper's application mix, the noise job, a fault
// injector and, as the third gate, RUSH over a trained model with the
// injector's outage hook, so vetoes, fail-open decisions, kills and
// requeues all reach both pass bodies.
func TestFastPassMatchesReferenceMatrix(t *testing.T) {
	seeds := []int64{101, 202, 303, 404, 505}
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
		for _, g := range gates {
			for _, sc := range scenarios {
				jobs := 80
				if g.name == "rush" {
					// A model decision costs a telemetry window, a
					// thousand times a scheduling pass: the RUSH rows are
					// the stack scenarios (the steady app never congests,
					// so elsewhere there is nothing to veto), at half
					// length.
					if !sc.stack {
						continue
					}
					jobs = 40
				}
				name := fmt.Sprintf("s%d-%s-%s", seed, g.name, sc.name)
				fast := diffTwin(t, name, twinSpec{
					seed: seed, nodes: 64, jobs: jobs,
					gate: g.mk, r1: FCFS{},
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

// TestFastPassMatchesReferenceSJFPrimary covers the policy the matrix
// does not: an SJF queue, so maintained-order inserts land mid-queue,
// not at the tail, and the backfill scan walks candidates shortest
// first.
func TestFastPassMatchesReferenceSJFPrimary(t *testing.T) {
	for _, seed := range []int64{7, 77} {
		diffTwin(t, fmt.Sprintf("sjf-primary-s%d", seed), twinSpec{
			seed: seed, nodes: 48, jobs: 70,
			gate: alwaysGate, r1: SJF{},
			faults: true, honesty: 0.5,
		})
	}
}

// TestReferenceReadsMembershipOnly shows that the oracle cannot inherit
// a fault of the order maintenance it checks: a reference scanner whose
// copy of the queue has two entries swapped before every scan (the copy,
// never the scheduler's own queue, which tryStart still searches) picks
// the same starts as one reading the untouched copy, under an FCFS and
// an SJF queue. What it reads is who is queued, not where.
func TestReferenceReadsMembershipOnly(t *testing.T) {
	swapped := 0
	for _, r1 := range []Policy{FCFS{}, SJF{}} {
		spec := twinSpec{
			seed: 303, nodes: 64, jobs: 80,
			gate: vetoGate(1), r1: r1,
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
			t.Fatalf("%s: sticky errors %v, %v", r1.Name(), plain.err, perturbed.err)
		}
		if plain.trace != perturbed.trace {
			t.Fatalf("%s: the reference scanner read the order of the queue it was handed", r1.Name())
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
// gates, random queue orders) run side-by-side through the fast and
// reference schedulers until at least 10,000 scheduling passes have been
// compared, diffing the full event traces — submits, starts, backfills,
// finishes, requeues, failures — not just start orders.
func TestFastPassPropertyRandomStreams(t *testing.T) {
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
			r1:      policies[meta.Intn(len(policies))],
			faults:  meta.Intn(2) == 0,
			honesty: meta.Uniform(0.4, 1.2),
		}
		vetoes := meta.Intn(3) // 0 = AlwaysStart
		spec.gate = alwaysGate
		if vetoes > 0 {
			spec.gate = vetoGate(vetoes)
		}
		name := fmt.Sprintf("iter%d-s%d-%s", iter, seed, spec.r1.Name())
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
// depth: a pass over a 1k-, 10k- and 100k-deep blocked queue with a nil
// observer allocates nothing, counted exactly over its first 20 passes at
// each depth (the fewest of three counts, each on a queue built afresh;
// see alloctest.Count).
func TestDeepQueuePassZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("deep queue setup is slow under -short")
	}
	for _, depth := range []int{1000, 10000, 100000} {
		var (
			s   *Scheduler
			err error
		)
		objects, bytes := alloctest.Count(3, func() { s = deepBlockedScheduler(depth) }, func() {
			for i := 0; i < 20 && err == nil; i++ {
				err = s.Pass()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if objects != 0 || bytes != 0 {
			t.Fatalf("20 passes over a %d-deep queue allocated %d objects, %d bytes with a nil observer; want 0", depth, objects, bytes)
		}
	}
}

// TestFinishZeroAllocs pins a scheduler finish: on a warm, pooled Quartz
// with DiscardCompleted, a job's completion — the machine's withdrawal,
// the running set's swap-remove, the timeline's removal and the pass it
// triggers over an empty queue — allocates nothing. Long jobs run beside
// it, one started after it, so the removal moves an entry into its slot.
// The warm-up runs one short job a simulated second past the machine's
// first history prune of its retention window, as the machine's own
// allocation guards do.
func TestFinishZeroAllocs(t *testing.T) {
	const interval, keep = telemetry.WindowSeconds, 3 * telemetry.WindowSeconds
	var (
		s   *Scheduler
		eng *sim.Engine
	)
	submit := func(j *Job) {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	build := func() {
		eng = sim.New(5)
		m, err := machine.New(eng, cluster.Quartz())
		if err != nil {
			t.Fatal(err)
		}
		m.PoolJobs = true
		m.StartPruning(interval, keep)
		if s, err = NewScheduler(Config{Machine: m}); err != nil {
			t.Fatal(err)
		}
		s.DiscardCompleted = true
		for i := 0; i < 8; i++ {
			submit(job(i, 4, 1e8))
		}
		for i := 0; i < interval+keep+64; i++ {
			submit(job(100+i, 2, 0.5))
			eng.RunUntil(eng.Now() + 1)
		}
		submit(job(99, 2, 0.5))
		submit(job(8, 4, 1e8))
	}
	objects, _ := alloctest.Count(3, build, func() { eng.RunUntil(eng.Now() + 1) })
	if s.CompletedCount() != interval+keep+65 || len(s.running) != 9 || s.running[8].ID != 8 || s.tl.len() != 9 {
		t.Fatalf("%d jobs done, %d running, %d releases; want every short one done and the 9 long ones running",
			s.CompletedCount(), len(s.running), s.tl.len())
	}
	if objects != 0 {
		t.Fatalf("a finish allocated %d times; want 0", objects)
	}
}

// TestSkipTableShiftMatchesRecompute pins the incremental skip-table
// maintenance: after every insert and every removal, at positions drawn
// over the whole queue, the table equals the one recomputed from the
// queue from scratch — through growth past several block boundaries, a
// drain to empty and growth again. Node counts and estimates are drawn
// once from many values, so that a block's minimum is held by one member
// and an arriving element often sets a new one, and once from few, so
// that minima are tied and the departing element often holds one.
func TestSkipTableShiftMatchesRecompute(t *testing.T) {
	type shape struct {
		order  Policy
		values int
	}
	for _, sh := range []shape{{FCFS{}, 400}, {SJF{}, 400}, {FCFS{}, 4}, {SJF{}, 4}} {
		order := sh.order
		s, err := NewScheduler(Config{Machine: testMachine(512), Primary: order})
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
					order, sh.values, step, op, len(s.queue), gotN, gotE, s.blkNodes, s.blkEst)
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
		if len(s.queue) != len(queued) {
			t.Fatalf("queue holds %d jobs, expected %d", len(s.queue), len(queued))
		}
	}
}
