package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/experiments"
	"rush/internal/obs"
	"rush/internal/serve"
	"rush/internal/stats"
)

// The traced run. It lives in its own process and its numbers never mix
// with the end-to-end ones. Spans and counts come only from this
// directory's code: a timing decorator around the job stream, the
// program's own metrics registry (Config.Metrics), per-request timing
// around Client.Do, and the isolated drivers of drivers.go. A layer's
// estimated seconds in a repetition are its exact call count times the
// driver's unit cost; the budget table sets the estimates against the
// measured repetition and reports what is left over.

// budgetRow is one line of a workload's layer budget. Rows are
// exclusive: where a driver's cost includes children that have rows of
// their own, the children are taken out before the row is written.
type budgetRow struct {
	layer   string
	what    string
	calls   float64
	unitNs  float64
	seconds float64
}

// traceCtx is what a unit's layers method works from.
type traceCtx struct {
	effort effort
	base   measurement // untraced repetitions in the same process
	traced measurement
}

// layered is implemented by every unit: it fills v with the unit's
// per-layer metrics and returns its budget rows.
type layered interface {
	layers(ctx *traceCtx, v map[string]float64) ([]budgetRow, error)
}

// tracedMinReps is the fewest repetitions each half of a traced run
// measures.
const tracedMinReps = 10

// runTraced measures the unit untraced and then traced in one process
// (half of the run's seconds each), runs the drivers, and returns every
// per-layer value with the budget. The returned measurement is the
// traced loop's, with the untraced loop's failures added.
func runTraced(w workloadSpec, p prepared, opts runOptions) (map[string]float64, []budgetRow, measurement, error) {
	base := measureAtLeast(p.u, false, opts.reps, opts.seconds/2, tracedMinReps)
	if en, ok := p.u.(interface{ enableTrace() }); ok {
		en.enableTrace()
	}
	traced := measureAtLeast(p.u, true, opts.reps, opts.seconds/2, tracedMinReps)

	ctx := &traceCtx{effort: fullEffort, base: base, traced: traced}
	if opts.mini {
		ctx.effort = miniEffort
	}
	v := map[string]float64{}
	rows, err := p.u.(layered).layers(ctx, v)
	if err != nil {
		return nil, nil, traced, fmt.Errorf("%s: %w", w.name, err)
	}

	rep := bestDecile(traced.durs)
	v["experiments.rep_p50_s"] = stats.Median(traced.durs)
	v["experiments.rep_spread"] = repSpread(traced.durs)
	v["experiments.trace_overhead_share"] = rep/bestDecile(base.durs) - 1
	var attributed float64
	for _, r := range rows {
		attributed += r.seconds
	}
	v["experiments.unattributed_share"] = 1 - attributed/rep
	v["go.gc_cycles_per_rep"] = float64(base.gcCycles) / float64(len(base.durs))
	v["go.gc_cpu_share"] = base.gcCPU / base.totalCPU
	v["obs.emit_ns"] = driveEmit(ctx.effort).ns

	traced.failed += base.failed
	if traced.why == "" {
		traced.why = base.why
	}
	return v, rows, traced, nil
}

// printBudget prints one workload's layer budget against the traced
// best-decile repetition.
func printBudget(out io.Writer, name string, rows []budgetRow, v map[string]float64, rep float64) {
	fmt.Fprintf(out, "\n%s layer budget (traced best-decile repetition %.4fs)\n", name, rep)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\twhat\tcalls\tunit ns\test. s\tshare\t")
	byLayer := map[string]float64{}
	var order []string
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f\t%.4f\t%.1f%%\t\n", r.layer, r.what, r.calls, r.unitNs, r.seconds, 100*r.seconds/rep)
		if _, seen := byLayer[r.layer]; !seen {
			order = append(order, r.layer)
		}
		byLayer[r.layer] += r.seconds
	}
	tw.Flush()
	fmt.Fprint(out, "  by layer:")
	for _, l := range order {
		fmt.Fprintf(out, " %s %.1f%%", l, 100*byLayer[l]/rep)
	}
	fmt.Fprintf(out, "; left over %.1f%%; GC %.1f%% of CPU (inside the rows above, not added)\n",
		100*v["experiments.unattributed_share"], 100*v["go.gc_cpu_share"])
}

// row builds a budget row from a call count and a unit cost, never
// negative (a child-exclusive cost can round below zero).
func row(layer, what string, calls, unitNs float64) budgetRow {
	if unitNs < 0 {
		unitNs = 0
	}
	return budgetRow{layer: layer, what: what, calls: calls, unitNs: unitNs, seconds: calls * unitNs / 1e9}
}

// counters reads the program's own metrics snapshot.
type counters struct{ snap *obs.Snapshot }

func (c counters) counter(name string) float64 {
	for _, m := range c.snap.Counters {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func (c counters) gauge(name string) float64 {
	for _, m := range c.snap.Gauges {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// simInputs is what the simulator layers' drivers and budget need to
// know about one repetition of a simulator workload.
type simInputs struct {
	effort   effort
	topo     cluster.Topology
	sizes    []int   // allocation size mix
	jobs     float64 // jobs completed per repetition
	makespan float64 // simulated seconds per repetition, summed over trials
	runSum   float64 // sum of realized run times, for the mean running set
	reg      counters
}

// simLayers prices the layers every simulator workload shares (sim,
// simnet, machine, cluster, sched) and returns their budget rows.
func simLayers(in simInputs, v map[string]float64) ([]budgetRow, error) {
	fired := in.reg.counter("sim_events_fired_total")
	scheduled := in.reg.counter("sim_events_scheduled_total")
	passes := in.reg.counter("sched_passes_total")
	queuePeak := in.reg.gauge("sched_queue_len_peak")

	// Noise phases are not counted by the program; they follow from the
	// simulated span and the noise job's mean phase length.
	nz := apps.DefaultNoise()
	phases := in.makespan / ((nz.MinPhase + nz.MaxPhase) / 2)
	// Completion events re-timed while queued: each Rearm counts as
	// scheduled and never fires under its old time.
	retimed := math.Max(scheduled-fired, 0)
	// Mean running set by Little's law; the pending-event depth is that
	// plus the few recurring events (feeder, noise, prune, retry).
	running := in.runSum / in.makespan
	depth := int(running) + 4
	mutations := 2*in.jobs + 2*phases

	e := in.effort
	heap := driveHeap(e, depth)
	rearm := driveRearm(e, depth)
	mutate, err := driveMutate(e, in.topo, in.makespan/mutations)
	if err != nil {
		return nil, err
	}
	cycle, err := driveJobCycle(e, in.topo, in.sizes)
	if err != nil {
		return nil, err
	}
	phase, err := driveNoisePhase(e, in.topo)
	if err != nil {
		return nil, err
	}
	reint, err := driveReintegrate(e, in.topo, int(running))
	if err != nil {
		return nil, err
	}
	alloc, err := driveAllocFree(e, in.topo, in.sizes)
	if err != nil {
		return nil, err
	}
	schedCycle, err := driveSchedCycle(e, in.topo, in.sizes)
	if err != nil {
		return nil, err
	}
	shallow, err := driveSubmitPass(e, in.topo, 10)
	if err != nil {
		return nil, err
	}
	deep, err := driveSubmitPass(e, in.topo, 10000)
	if err != nil {
		return nil, err
	}

	v["sim.events_fired"] = fired
	v["sim.events_per_op"] = fired / in.jobs
	v["sim.heap_ns_per_event"] = heap.ns
	v["sim.rearm_ns"] = rearm.ns
	v["simnet.mutate_ns"] = mutate.ns
	v["simnet.mutate_allocs"] = mutate.allocs
	v["simnet.mutate_bytes"] = mutate.bytes
	v["machine.job_cycle_ns"] = cycle.ns
	v["machine.noise_phase_ns"] = phase.ns
	v["machine.noise_phase_allocs"] = phase.allocs
	v["machine.reintegrate_ns_per_running_job"] = reint.ns
	v["cluster.alloc_free_ns"] = alloc.ns
	v["cluster.alloc_free_allocs"] = alloc.allocs
	v["sched.passes"] = passes
	v["sched.queue_len_peak"] = queuePeak
	v["sched.backfilled"] = in.reg.counter("sched_jobs_backfilled_total")
	v["sched.timeline_breakpoints_peak"] = in.reg.gauge("timeline_breakpoints")
	v["sched.pass_wall_s"] = in.reg.counter("sched_pass_wall_us") / 1e6
	v["sched.job_cycle_ns"] = schedCycle.ns
	v["sched.submit_pass_ns_shallow"] = shallow.ns
	v["sched.submit_pass_ns_deep"] = deep.ns

	// A pass on a queue that stays shallow costs the shallow price; one
	// that has ever been thousands deep is priced deep.
	passNs, passWhat := shallow.ns, "passes (shallow queue)"
	if queuePeak >= 1000 {
		passNs, passWhat = deep.ns, "passes (deep queue)"
	}
	// A job's own two passes (submit, finish) are inside the scheduler's
	// job cycle; only the passes beyond those are priced separately.
	return []budgetRow{
		row("sched", "job start+finish, self", in.jobs, schedCycle.ns-cycle.ns),
		row("sched", passWhat+" beyond two per job", math.Max(passes-2*in.jobs, 0), passNs),
		row("cluster", "Alloc+Free per job", in.jobs, alloc.ns),
		row("machine", "job start+complete, self", in.jobs, cycle.ns-alloc.ns-2*mutate.ns-heap.ns),
		row("machine", "noise phases (est.), self", phases, phase.ns-2*mutate.ns-rearm.ns),
		row("machine", "re-integrations, self", retimed, reint.ns-rearm.ns),
		row("simnet", "Apply/Remove", mutations, mutate.ns),
		row("sim", "events through the heap", fired, heap.ns),
		row("sim", "Rearm of queued completions", retimed, rearm.ns),
	}, nil
}

func (u *replayUnit) layers(ctx *traceCtx, v map[string]float64) ([]budgetRow, error) {
	sum := u.last
	if sum == nil || sum.Metrics == nil {
		return nil, fmt.Errorf("traced repetition left no metrics snapshot")
	}
	swf := driveSWF(ctx.effort, u.trace, u.topo)
	v["workload.next_calls"] = float64(u.stream.calls)
	v["workload.next_self_s"] = u.stream.selfSeconds()
	v["workload.swf_ns_per_line"] = swf.ns

	jobs := float64(sum.Jobs)
	v["model.makespan_s"] = sum.Makespan
	v["model.wait_mean_s"] = sum.Wait.Mean
	v["model.slowdown_mean"] = sum.Slowdown.Mean
	v["model.high_variation_share"] = float64(sum.HighVariation) / jobs
	v["model.utilization"] = u.trace.nodeSeconds / (float64(u.topo.Nodes) * sum.Makespan)

	rows, err := simLayers(simInputs{
		effort: ctx.effort, topo: u.topo, sizes: traceSizes,
		jobs: jobs, makespan: sum.Makespan, runSum: sum.Run.Mean * jobs,
		reg: counters{sum.Metrics},
	}, v)
	if err != nil {
		return nil, err
	}
	return append([]budgetRow{row("workload", "JobStream.Next (decorator)", float64(u.stream.calls),
		u.stream.selfSeconds()*1e9/float64(u.stream.calls))}, rows...), nil
}

func (u *paperUnit) layers(ctx *traceCtx, v map[string]float64) ([]budgetRow, error) {
	snaps := make([]*obs.Snapshot, len(u.last))
	var jobs, makespan, runSum, waitSum, slowSum, high, ref16, util float64
	for i, tr := range u.last {
		if tr == nil || tr.Metrics == nil {
			return nil, fmt.Errorf("traced repetition left no metrics snapshot")
		}
		snaps[i] = tr.Metrics
		makespan += tr.Makespan
		util += experiments.Utilization(tr, tr.TopoNodes)
		high += float64(u.highVariation(tr))
		for k := range tr.Jobs {
			j := &tr.Jobs[k]
			jobs++
			runSum += j.RunTime
			waitSum += j.Wait
			slowSum += j.RunTime / u.trials[i].base[j.ID]
			if j.Nodes == 16 {
				ref16++
			}
		}
	}
	reg := counters{obs.Merge(snaps...)}
	evals := reg.counter("gate_evaluations_total")
	v["sched.gate_evals"] = evals
	v["sched.gate_vetoes"] = reg.counter("gate_vetoes_total")
	v["experiments.rush_variation_ratio"] = u.variationRatio()
	v["model.makespan_s"] = makespan
	v["model.wait_mean_s"] = waitSum / jobs
	v["model.slowdown_mean"] = slowSum / jobs
	v["model.high_variation_share"] = high / ref16
	v["model.utilization"] = util / float64(len(u.last))
	v["core.collect_s"] = u.collectS
	v["core.train_s"] = u.trainS
	v["core.dataset_rows"] = float64(u.datasetRows)

	winCold, winWarm, err := driveWindow(ctx.effort)
	if err != nil {
		return nil, err
	}
	gateCold, gateWarm, err := driveGate(ctx.effort, u.pred.Model)
	if err != nil {
		return nil, err
	}
	predict, err := drivePredict(ctx.effort, u.pred.Model, u.fitX[0])
	if err != nil {
		return nil, err
	}
	fitS, err := u.fitSeconds()
	if err != nil {
		return nil, err
	}
	v["telemetry.window_ns_cold"] = winCold.ns
	v["telemetry.window_ns_warm"] = winWarm.ns
	v["telemetry.window_bytes"] = winCold.bytes
	v["sched.gate_decision_ns_cold"] = gateCold.ns
	v["sched.gate_decision_ns_warm"] = gateWarm.ns
	v["sched.gate_decision_allocs"] = gateCold.allocs
	v["mlkit.predict_ns"] = predict.ns
	v["mlkit.fit_s"] = fitS
	v["obs.trace_rep_overhead_share"] = u.traceEventsOverhead(ctx.base)

	rows, err := simLayers(simInputs{
		effort: ctx.effort, topo: cluster.Pod512(), sizes: []int{8, 16, 16, 16, 16, 16, 16, 32},
		jobs: jobs, makespan: makespan, runSum: runSum, reg: reg,
	}, v)
	if err != nil {
		return nil, err
	}
	// Every veto is re-asked after the cooldown on the same nodes; the
	// remaining evaluations are first asks on a fresh scope.
	vetoes := v["sched.gate_vetoes"]
	return append([]budgetRow{
		row("telemetry", "gate window, first ask (cold scope)", evals-vetoes, winCold.ns),
		row("telemetry", "gate window, re-ask after a veto (warm)", vetoes, winWarm.ns),
		row("sched", "gate decision, self", evals, gateWarm.ns-winWarm.ns-predict.ns),
		row("mlkit", "ensemble inference", evals, predict.ns),
	}, rows...), nil
}

// traceSizes is the replay generator's allocation size mix in rotation
// order, for the allocator and job-cycle drivers.
var traceSizes = func() []int {
	var out []int
	for i := 0; i < 140; i++ {
		app := swfApps[i%len(swfApps)]
		out = append(out, app.sizes[(i/len(swfApps))%len(app.sizes)])
	}
	return out
}()

func (u *serveUnit) layers(ctx *traceCtx, v map[string]float64) ([]budgetRow, error) {
	after, err := u.stats()
	if err != nil {
		return nil, err
	}
	reps := float64(len(ctx.traced.durs))
	delta := func(name string) float64 { return float64(after[name] - u.statsBefore[name]) }
	requests := delta("serve_requests_total") - 1 // the closing stats request counts itself
	hits, misses := delta("serve_cache_hits_total"), delta("serve_cache_misses_total")
	v["serve.requests"] = requests / reps
	v["serve.cache_hit_ratio"] = hits / (hits + misses)
	v["serve.batch_mean_size"] = delta("serve_batched_decisions_total") / delta("serve_batches_total")
	v["serve.ingests"] = delta("serve_ingests_total") / reps
	v["serve.busy_share"] = delta("serve_backpressure_drops_total") / requests

	var all []float64
	var rttSum float64
	for k := 0; k < numKinds; k++ {
		if len(u.rtt[k]) == 0 {
			return nil, fmt.Errorf("no %s round trips were timed", kindNames[k])
		}
		v["serve.rtt_us_p50."+kindNames[k]] = stats.Median(u.rtt[k]) * 1e6
		all = append(all, u.rtt[k]...)
		for _, d := range u.rtt[k] {
			rttSum += d
		}
	}
	v["serve.rtt_us_p99"] = stats.Quantile(all, 0.99) * 1e6
	meanRTT := rttSum / float64(len(all))

	handle, resps, err := driveHandle(ctx.effort, u.model, u.script)
	if err != nil {
		return nil, err
	}
	frame, err := driveFrame(ctx.effort, u.script, resps)
	if err != nil {
		return nil, err
	}
	var evals float64
	var sample []float64
	for i := range u.script {
		if u.script[i].Op == serve.OpEval {
			evals++
			sample = u.script[i].Feats
		}
	}
	predict, err := drivePredict(ctx.effort, u.model, sample)
	if err != nil {
		return nil, err
	}
	transportNs := meanRTT*1e9 - handle.ns - frame.ns
	v["serve.handle_us_per_op"] = handle.ns / 1e3
	v["serve.handle_allocs_per_op"] = handle.allocs
	v["serve.frame_us_per_op"] = frame.ns / 1e3
	v["serve.frame_allocs_per_op"] = frame.allocs
	v["serve.transport_us_per_op"] = transportNs / 1e3
	v["mlkit.predict_ns"] = predict.ns

	ops := float64(len(u.script))
	inferences := misses/reps + evals // uncached decides and evals reach the model
	return []budgetRow{
		row("serve", "Server.Handle, inference excluded", ops, handle.ns-predict.ns*inferences/ops),
		row("mlkit", "ensemble inference", inferences, predict.ns),
		row("serve", "framing + JSON, both sides", ops, frame.ns),
		row("serve", "transport: socket, hand-offs", ops, transportNs),
	}, nil
}
