package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/serve"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// Isolated layer drivers. Each calls one layer's public functions with
// inputs shaped like a workload's and prices a call by the harness's
// best-decile rule. A driver never runs inside a timed repetition: its
// unit cost is multiplied by the exact call count the program's own
// metrics registry reports to estimate the layer's seconds in a
// repetition (trace.go), which is then checked against what is left
// over. Costs measured here include the layer's children where the
// metric's definition says so.

// cost is one driver's price per call.
type cost struct {
	ns     float64 // best-decile nanoseconds per call
	allocs float64 // heap allocations per call
	bytes  float64 // heap bytes per call
}

// effort sizes a driver run: how many batches are timed (the best decile
// of ten is the fastest one) and by how much the per-batch call counts
// are divided. The tests' miniature runs use a small effort so that
// every driver still executes, in milliseconds.
type effort struct{ batches, div int }

var (
	fullEffort = effort{batches: 10, div: 1}
	miniEffort = effort{batches: 2, div: 50}
)

// calls scales a driver's per-batch call count.
func (e effort) calls(n int) int {
	if n /= e.div; n < 8 {
		n = 8
	}
	return n
}

// price runs batch (which makes calls calls) e.batches times after one
// untimed warm-up and returns the per-call cost.
func (e effort) price(calls int, batch func()) cost {
	batch()
	durs := make([]float64, 0, e.batches)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < e.batches; i++ {
		t0 := time.Now()
		batch()
		durs = append(durs, time.Since(t0).Seconds())
	}
	runtime.ReadMemStats(&after)
	n := float64(calls * e.batches)
	return cost{
		ns:     bestDecile(durs) * 1e9 / float64(calls),
		allocs: float64(after.Mallocs-before.Mallocs) / n,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}

// lcg is a tiny inline generator for driver inputs, cheap enough not to
// show in a nanosecond-scale measurement.
type lcg uint64

func (g *lcg) unit() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / (1 << 53)
}

// driveSWF prices SWFStream.Next per line over a repetition's bytes.
func driveSWF(e effort, tr swfTrace, topo cluster.Topology) cost {
	reader := bytes.NewReader(tr.raw)
	return e.price(tr.jobs, func() {
		reader.Reset(tr.raw)
		st := workload.NewSWFStream(reader, workload.SWFOptions{CoresPerNode: topo.CoresPerNode, MaxNodes: topo.Nodes})
		for {
			if _, ok, err := st.Next(); !ok || err != nil {
				return
			}
		}
	})
}

// driveHeap prices one event through the engine's heap, ScheduleOnce
// then Step, with depth events pending: each new event lands at a
// uniformly drawn place in the pending range, so the queue holds its
// depth and both sifts travel typical distances.
func driveHeap(e effort, depth int) cost {
	calls := e.calls(50000)
	eng := sim.New(1)
	g := lcg(1)
	span := float64(depth)
	nop := func() {}
	for i := 0; i < depth; i++ {
		eng.ScheduleOnce(g.unit()*span, nop)
	}
	return e.price(calls, func() {
		for i := 0; i < calls; i++ {
			eng.ScheduleOnce(g.unit()*span, nop)
			eng.Step()
		}
	})
}

// driveRearm prices Rearm of a queued completion event with depth events
// pending, moved the way a contention change moves it: every pending
// completion is re-timed by a common factor (the change in slowdown,
// here alternating between 1 and 1.3) times a per-job term within 2 %,
// so relative order is mostly kept and the heap fix-up travels a level
// or none. Re-timing to uniformly drawn instants instead prices a full
// sift per call and put Rearm at 70 % of replay-saturated against 29 %
// in the profile.
func driveRearm(e effort, depth int) cost {
	calls := e.calls(50000)
	eng := sim.New(1)
	g := lcg(2)
	base := make([]float64, depth)
	evs := make([]*sim.Event, depth)
	for i := range evs {
		base[i] = 1 + g.unit()*float64(depth)
		evs[i] = eng.At(base[i], func() {})
	}
	round := 0
	return e.price(calls, func() {
		for i := 0; i < calls; i++ {
			k := i % depth
			if k == 0 {
				round++
			}
			scale := 1 + 0.3*float64(round&1)
			eng.Rearm(evs[k], base[k]*scale*(1+0.02*g.unit()))
		}
	})
}

// driveMutate prices simnet.State.Apply/Remove with history on and
// History.Prune at the default cadence (every window, keeping three).
// gap is the simulated seconds between mutations in the workload, which
// sets how many epochs the history holds between prunes.
func driveMutate(e effort, topo cluster.Topology, gap float64) (cost, error) {
	calls := e.calls(20000)
	now := 0.0
	st, err := simnet.NewState(topo, func() float64 { return now })
	if err != nil {
		return cost{}, err
	}
	pods := topo.Pods()
	contribs := make([]simnet.Contribution, pods)
	for p := range contribs {
		contribs[p] = simnet.Contribution{PodNet: map[int]float64{p: 0.02}, FS: 0.002}
	}
	nextPrune := telemetry.WindowSeconds
	return e.price(calls, func() {
		for i := 0; i < calls; i += 2 {
			c := contribs[(i/2)%pods]
			now += gap
			st.Apply(c)
			now += gap
			st.Remove(c)
			if now >= nextPrune {
				st.History().Prune(now - 3*telemetry.WindowSeconds)
				nextPrune = now + telemetry.WindowSeconds
			}
		}
	}), nil
}

// newDriverMachine builds a machine with pooled job state, as a trial
// does.
func newDriverMachine(topo cluster.Topology) (*sim.Engine, *machine.Machine, error) {
	eng := sim.New(7)
	m, err := machine.New(eng, topo)
	if err != nil {
		return nil, nil, err
	}
	m.PoolJobs = true
	return eng, m, nil
}

// jobCycleWork is the driver job's base run time. It is short so that
// the recurring prune event fires about once per fifteen jobs, near the
// workloads' one per ten, instead of a dozen times per job.
const jobCycleWork = 20

// driveJobCycle prices one job on an idle machine: Alloc, StartJob, the
// completion event, Free and the completion callback. It includes the
// job's cluster, simnet and sim children.
func driveJobCycle(e effort, topo cluster.Topology, sizes []int) (cost, error) {
	calls := e.calls(10000)
	eng, m, err := newDriverMachine(topo)
	if err != nil {
		return cost{}, err
	}
	m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
	profiles := apps.Defaults()
	done := false
	onDone := func(*machine.RunningJob) { done = true }
	var failed error
	c := e.price(calls, func() {
		for i := 0; i < calls; i++ {
			alloc, err := m.Alloc.Alloc(sizes[i%len(sizes)])
			if err != nil {
				failed = err
				return
			}
			done = false
			m.StartJob(profiles[i%len(profiles)], alloc, jobCycleWork, onDone)
			for !done {
				eng.Step()
			}
		}
	})
	return c, failed
}

// driveNoisePhase prices one phase change of the all-to-all noise job:
// withdraw the old load, draw and apply the new, re-arm the phase event.
// Nothing else is queued, so every Step is exactly one phase; history is
// pruned every third phase, the default cadence at the default phase
// length.
func driveNoisePhase(e effort, topo cluster.Topology) (cost, error) {
	calls := e.calls(10000)
	eng, m, err := newDriverMachine(topo)
	if err != nil {
		return cost{}, err
	}
	if _, err := m.StartNoise(apps.DefaultNoise()); err != nil {
		return cost{}, err
	}
	hist := m.Net.History()
	return e.price(calls, func() {
		for i := 0; i < calls; i++ {
			eng.Step()
			if i%3 == 0 {
				hist.Prune(eng.Now() - 3*telemetry.WindowSeconds)
			}
		}
	}), nil
}

// driveReintegrate prices contention re-integration per running job: k
// jobs run on a machine whose filesystem sits at its nominal capacity
// while a second ambient load moves it by a job's worth (0.004 to
// 0.008), as a start or a finish does. Every Set changes every job's
// slowdown a little, and the machine integrates its progress and
// re-times its completion event. A Set is two mutations (withdraw,
// apply) and each re-integrates all k jobs, so the result is the cost of
// one Set divided by 2k, Rearm included.
func driveReintegrate(e effort, topo cluster.Topology, k int) (cost, error) {
	sets := e.calls(400)
	if max := topo.Nodes / 2; k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	eng, m, err := newDriverMachine(topo)
	if err != nil {
		return cost{}, err
	}
	profiles := apps.Defaults()
	for i := 0; i < k; i++ {
		alloc, err := m.Alloc.Alloc(2)
		if err != nil {
			return cost{}, err
		}
		m.StartJob(profiles[i%len(profiles)], alloc, 1e9, nil)
	}
	m.NewBackground().Set(simnet.Contribution{FS: 1.0})
	bg := m.NewBackground()
	levels := [2]simnet.Contribution{{FS: 0.004}, {FS: 0.008}}
	hist := m.Net.History()
	c := e.price(sets, func() {
		for i := 0; i < sets; i++ {
			eng.RunUntil(eng.Now() + 5)
			bg.Set(levels[i&1])
		}
		hist.Prune(eng.Now() - 3*telemetry.WindowSeconds)
	})
	c.ns /= float64(2 * k)
	c.allocs /= float64(2 * k)
	c.bytes /= float64(2 * k)
	return c, nil
}

// driveAllocFree prices cluster.Allocator Alloc + Free at half
// occupancy with the workload's size mix: the oldest allocation is freed
// and a new one made, so the free map stays fragmented the way a
// running machine's is.
func driveAllocFree(e effort, topo cluster.Topology, sizes []int) (cost, error) {
	calls := e.calls(50000)
	a, err := cluster.NewAllocator(topo)
	if err != nil {
		return cost{}, err
	}
	var ring []cluster.Allocation
	for i := 0; a.UsedCount() < topo.Nodes/2; i++ {
		al, err := a.Alloc(sizes[i%len(sizes)])
		if err != nil {
			return cost{}, err
		}
		ring = append(ring, al)
	}
	var failed error
	c := e.price(calls, func() {
		for i := 0; i < calls; i++ {
			slot := i % len(ring)
			a.Free(ring[slot])
			al, err := a.Alloc(sizes[(i+slot)%len(sizes)])
			if err != nil {
				failed = err
				return
			}
			ring[slot] = al
		}
	})
	return c, failed
}

// driveSchedCycle prices one job through the scheduler on an idle
// machine: Submit (the job starts in the same pass), its completion
// event, finish and the pass that follows. It includes the machine's job
// cycle; the budget takes that out to leave the scheduler's own start
// and finish bookkeeping.
func driveSchedCycle(e effort, topo cluster.Topology, sizes []int) (cost, error) {
	calls := e.calls(10000)
	eng, m, err := newDriverMachine(topo)
	if err != nil {
		return cost{}, err
	}
	m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
	s, err := sched.NewScheduler(sched.Config{Machine: m})
	if err != nil {
		return cost{}, err
	}
	s.DiscardCompleted = true
	profiles := apps.Defaults()
	jobs := make([]sched.Job, calls)
	var failed error
	c := e.price(calls, func() {
		for i := range jobs {
			jobs[i] = sched.Job{ID: i, App: profiles[i%len(profiles)], Nodes: sizes[i%len(sizes)],
				BaseWork: jobCycleWork, Estimate: 1.5 * jobCycleWork}
			if err := s.Submit(&jobs[i]); err != nil {
				failed = err
				return
			}
			for done := s.CompletedCount() + 1; s.CompletedCount() < done; {
				eng.Step()
			}
		}
	})
	if failed == nil {
		failed = s.Err()
	}
	return c, failed
}

// driveSubmitPass prices Scheduler.Submit (which runs a Pass) on a full
// machine with about blocked jobs already queued: nothing can start, so
// the cost is queue insertion, the pivot's reservation and the backfill
// scan, the bookkeeping a pass does when it changes nothing.
func driveSubmitPass(e effort, topo cluster.Topology, blocked int) (cost, error) {
	const jobSize = 16
	rounds := e.batches
	submits := blocked / 10
	if submits < 10 {
		submits = 10
	}
	profiles := apps.Defaults()
	mkJob := func(id int) *sched.Job {
		return &sched.Job{ID: id, App: profiles[id%len(profiles)], Nodes: jobSize, BaseWork: 3600, Estimate: 5400}
	}
	durs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		_, m, err := newDriverMachine(topo)
		if err != nil {
			return cost{}, err
		}
		s, err := sched.NewScheduler(sched.Config{Machine: m})
		if err != nil {
			return cost{}, err
		}
		id := 0
		// Fill the machine with running jobs, then queue the blocked ones.
		for m.Alloc.CanAlloc(jobSize) || s.QueueLen() < blocked {
			if err := s.Submit(mkJob(id)); err != nil {
				return cost{}, err
			}
			id++
		}
		jobs := make([]*sched.Job, submits)
		for i := range jobs {
			jobs[i] = mkJob(id + i)
		}
		t0 := time.Now()
		for _, j := range jobs {
			if err := s.Submit(j); err != nil {
				return cost{}, err
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
		if err := s.Err(); err != nil {
			return cost{}, err
		}
	}
	return cost{ns: bestDecile(durs) * 1e9 / float64(submits)}, nil
}

// gateRig is a Pod512 machine under the noise job and an ambient load,
// with telemetry history behind it, for the gate and sampler drivers.
type gateRig struct {
	eng    *sim.Engine
	m      *machine.Machine
	scopes []cluster.Allocation // disjoint 16-node scopes
}

func newGateRig() (*gateRig, error) {
	topo := cluster.Pod512()
	eng, m, err := newDriverMachine(topo)
	if err != nil {
		return nil, err
	}
	if _, err := m.StartNoise(apps.DefaultNoise()); err != nil {
		return nil, err
	}
	m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
	m.NewBackground().Set(simnet.Contribution{PodNet: map[int]float64{0: 0.5}, FS: 0.3})
	eng.RunUntil(900)
	rig := &gateRig{eng: eng, m: m}
	for lo := 64; lo+16 <= topo.Nodes; lo += 16 {
		nodes := make([]cluster.NodeID, 16)
		for i := range nodes {
			nodes[i] = cluster.NodeID(lo + i)
		}
		rig.scopes = append(rig.scopes, cluster.Allocation{Nodes: nodes})
	}
	return rig, nil
}

// tick advances the rig to just after the next telemetry sample.
func (r *gateRig) tick() { r.eng.RunUntil(r.eng.Now() + telemetry.SamplePeriod) }

// The sampler and gate drivers price two shapes, the two a RUSH trial is
// made of. Cold: a 16-node scope the sampler has not aggregated within
// the five-minute window (the rig rotates through 28 disjoint scopes,
// one per tick, so a scope returns after 420 s and finds none of its 320
// rows cached): what a job's first gate decision on a freshly allocated
// node set pays. Warm: the same scope asked again two ticks later, the
// scheduler's 30 s veto cooldown, when 32 of the 320 rows are new: what
// every re-ask of a vetoed job pays. The clock advance between calls is
// priced alone and taken out.

// coldWarm runs ask in both shapes.
func coldWarm(e effort, rig *gateRig, ask func(scope cluster.Allocation)) (cold, warm cost) {
	calls := e.calls(200)
	idle := e.price(calls, func() {
		for i := 0; i < calls; i++ {
			rig.tick()
		}
	})
	turn := 0
	cold = e.price(calls, func() {
		for i := 0; i < calls; i++ {
			rig.tick()
			turn++
			ask(rig.scopes[turn%len(rig.scopes)])
		}
	})
	warm = e.price(calls, func() {
		for i := 0; i < calls; i++ {
			rig.tick()
			rig.tick()
			ask(rig.scopes[0])
		}
	})
	cold.ns -= idle.ns
	cold.allocs -= idle.allocs
	cold.bytes -= idle.bytes
	warm.ns -= 2 * idle.ns
	warm.allocs -= 2 * idle.allocs
	warm.bytes -= 2 * idle.bytes
	return cold, warm
}

// driveWindow prices Sampler.AggregateWindowInto over a 16-node scope.
func driveWindow(e effort) (cold, warm cost, err error) {
	rig, err := newGateRig()
	if err != nil {
		return cost{}, cost{}, err
	}
	var agg telemetry.Aggregates
	hist := rig.m.Net.History()
	cold, warm = coldWarm(e, rig, func(scope cluster.Allocation) {
		rig.m.Sampler.AggregateWindowInto(hist, scope.Nodes, rig.eng.Now(), &agg)
	})
	return cold, warm, nil
}

// driveGate prices RUSH.Allow with the trained model on a 16-node scope,
// inclusive of the sampler window, the MPI probes, feature assembly and
// inference.
func driveGate(e effort, model mlkit.Classifier) (cold, warm cost, err error) {
	rig, err := newGateRig()
	if err != nil {
		return cost{}, cost{}, err
	}
	gate := sched.NewRUSH(rig.m, model)
	job := &sched.Job{ID: 1, App: apps.Defaults()[2], Nodes: 16}
	cold, warm = coldWarm(e, rig, func(scope cluster.Allocation) {
		job.Skips = 0
		gate.Allow(job, scope)
	})
	if gate.Evaluations == 0 {
		return cost{}, cost{}, fmt.Errorf("gate driver: the gate never reached the model (degraded %d)", gate.Degraded)
	}
	return cold, warm, nil
}

// drivePredict prices PredictProbaInto on a trained ensemble.
func drivePredict(e effort, model mlkit.Classifier, sample []float64) (cost, error) {
	calls := e.calls(20000)
	fp, ok := model.(mlkit.FastProbaPredictor)
	if !ok {
		return cost{}, fmt.Errorf("predict driver: %s has no allocation-free inference", model.Name())
	}
	out := make([]float64, len(fp.Classes()))
	return e.price(calls, func() {
		for i := 0; i < calls; i++ {
			fp.PredictProbaInto(sample, out)
		}
	}), nil
}

// driveEmit prices one batched Tracer.Emit to io.Discard.
func driveEmit(e effort) cost {
	calls := e.calls(50000)
	tr := obs.NewBatchedTracer(io.Discard)
	ev := obs.Event{Kind: obs.KindStart, Job: 12345, App: "Laghos", Nodes: 16, Wait: 123.456, Skips: 1}
	return e.price(calls, func() {
		for i := 0; i < calls; i++ {
			ev.Time = float64(i) * 1.5
			tr.Emit(&ev)
		}
		tr.Flush()
	})
}

// driveHandle prices the script through Server.Handle, no wire, and
// records the responses for the framing driver.
func driveHandle(e effort, model mlkit.Classifier, script []serve.Request) (cost, []serve.Response, error) {
	srv, err := serve.NewServer(serve.Config{Model: model})
	if err != nil {
		return cost{}, nil, err
	}
	defer srv.Close()
	resps := make([]serve.Response, len(script))
	c := e.price(len(script), func() {
		for i := range script {
			srv.Handle(&script[i], &resps[i])
		}
	})
	return c, resps, nil
}

// driveFrame prices the wire format alone: every request and every
// response of the script written with WriteFrame and read back with
// ReadFrame through a bytes.Buffer, which is what client and server
// together spend on framing and JSON per operation.
func driveFrame(e effort, script []serve.Request, resps []serve.Response) (cost, error) {
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	var failed error
	c := e.price(len(script), func() {
		for i := range script {
			var req serve.Request
			var resp serve.Response
			if err := serve.WriteFrame(&buf, &script[i]); err != nil {
				failed = err
			}
			if err := serve.ReadFrame(br, &req); err != nil {
				failed = err
			}
			if err := serve.WriteFrame(&buf, &resps[i]); err != nil {
				failed = err
			}
			if err := serve.ReadFrame(br, &resp); err != nil {
				failed = err
			}
		}
	})
	return c, failed
}
