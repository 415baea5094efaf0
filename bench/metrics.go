package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// metricDef describes one reported metric. The catalogue below is the
// single source for -list, for the names a run emits, and for the test
// that holds BENCHMARK.json to it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the previous median by which an end-to-end
	// metric may worsen before it counts as a regression; zero for
	// per-layer metrics, which have none.
	bound float64
	// on lists the workloads the metric applies to; nil means all four.
	// A traced run reports a per-layer metric that does not apply to
	// its workload as 0: the workload does not exercise that layer.
	on  []string
	doc string
}

var (
	replays = []string{"replay-open", "replay-saturated"}
	sims    = []string{"replay-open", "replay-saturated", "paper-trials"}
	paper   = []string{"paper-trials"}
	wire    = []string{"serve-wire"}
	learned = []string{"paper-trials", "serve-wire"}
)

// endToEnd are the metrics a user of the system would see, measured
// with tracing and the metrics registry off. Each bound is at least
// three times the widest quartile spread seen on any workload across ten
// seeds and at least twice the spread of five back-to-back runs at one
// seed; the two timing bounds also cover the host's own drift, which
// moved every workload's speed by up to a fifth within one afternoon
// (README.md, "How the bounds were set").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		doc: "wall time from the start of set-up to the first timed repetition: input generation, predictor collection and training, server start, three warm-up repetitions; median over the workload's set-up repetitions"},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25,
		doc: "operations in one repetition / best-decile repetition seconds; an operation is one completed job (replay, paper) or one request frame answered (serve)"},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05,
		doc: "MemStats.Mallocs delta over all timed repetitions / operations"},
	{name: "bytes_per_op", unit: "B", better: "lower", bound: 0.03,
		doc: "MemStats.TotalAlloc delta over all timed repetitions / operations"},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.25,
		doc: "MemStats.HeapSys after the last repetition: a monotone high-water mark, read once, no sampler goroutine; it grows in 4 MB steps, one of which is a fifth of replay-open's heap"},
}

// perLayer are the traced run's metrics, named by module. doc says what
// end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{name: "experiments.rep_p50_s", unit: "s", better: "lower", doc: "median traced repetition"},
	{name: "experiments.rep_spread", unit: "ratio", better: "lower", doc: "(median - best decile) / best decile of the traced repetitions; above 0.15 the run was disturbed"},
	{name: "experiments.trace_overhead_share", unit: "ratio", better: "lower", doc: "traced / untraced best-decile repetition - 1"},
	{name: "experiments.unattributed_share", unit: "ratio", better: "lower", doc: "share of the repetition the layer budget does not account for"},
	{name: "experiments.rush_variation_ratio", unit: "ratio", better: "lower", on: paper, doc: "TotalVariation of the repetition's three RUSH ADAA trials / that of its three Baseline trials, against BaselineStats of those baselines: the paper's headline (17 -> 4 runs with variation)"},

	{name: "workload.next_calls", unit: "count", better: "lower", on: replays, doc: "exact JobStream.Next calls per repetition"},
	{name: "workload.next_self_s", unit: "s", better: "lower", on: replays, doc: "time inside JobStream.Next per repetition (decorator, one call in sixteen timed) -> ops_per_s on replay-open"},
	{name: "workload.swf_ns_per_line", unit: "ns", better: "lower", on: replays, doc: "SWFStream.Next over the repetition's bytes, per line"},

	{name: "sim.events_fired", unit: "count", better: "lower", on: sims, doc: "sim_events_fired_total per repetition, exact"},
	{name: "sim.events_per_op", unit: "count", better: "lower", on: sims, doc: "events fired per completed job"},
	{name: "sim.heap_ns_per_event", unit: "ns", better: "lower", on: sims, doc: "ScheduleOnce + Step at the workload's typical pending depth -> ops_per_s on replay-saturated"},
	{name: "sim.rearm_ns", unit: "ns", better: "lower", on: sims, doc: "Rearm of a queued event at that depth -> ops_per_s on replay-saturated"},

	{name: "simnet.mutate_ns", unit: "ns", better: "lower", on: sims, doc: "State.Apply/Remove with history on and History.Prune at the default cadence, per mutation -> ops_per_s on replay-open"},
	{name: "simnet.mutate_allocs", unit: "count", better: "lower", on: sims, doc: "allocations per mutation -> allocs_per_op on replay-open"},
	{name: "simnet.mutate_bytes", unit: "B", better: "lower", on: sims, doc: "bytes per mutation (history append and prune) -> bytes_per_op on replay-open"},

	{name: "machine.job_cycle_ns", unit: "ns", better: "lower", on: sims, doc: "StartJob to completion callback on an idle machine, inclusive of its simnet and sim children -> ops_per_s, allocs_per_op on replay-open"},
	{name: "machine.noise_phase_ns", unit: "ns", better: "lower", on: sims, doc: "one noise-job phase change, inclusive of its simnet and sim children -> ops_per_s on replay-open"},
	{name: "machine.noise_phase_allocs", unit: "count", better: "lower", on: sims, doc: "allocations per noise phase -> allocs_per_op on replay-open"},
	{name: "machine.reintegrate_ns_per_running_job", unit: "ns", better: "lower", on: sims, doc: "one Background.Set over an overloaded pod with K running jobs / K, inclusive of Rearm -> ops_per_s on replay-saturated only"},

	{name: "cluster.alloc_free_ns", unit: "ns", better: "lower", on: sims, doc: "Alloc + Free at half occupancy with the workload's size mix -> ops_per_s on replay-open"},
	{name: "cluster.alloc_free_allocs", unit: "count", better: "lower", on: sims, doc: "allocations per Alloc + Free -> allocs_per_op on replay-open"},

	{name: "sched.passes", unit: "count", better: "lower", on: sims, doc: "sched_passes_total per repetition, exact"},
	{name: "sched.queue_len_peak", unit: "count", better: "lower", on: sims, doc: "sched_queue_len_peak, exact"},
	{name: "sched.backfilled", unit: "count", better: "higher", on: sims, doc: "sched_jobs_backfilled_total per repetition, exact"},
	{name: "sched.timeline_breakpoints_peak", unit: "count", better: "lower", on: sims, doc: "timeline_breakpoints gauge, exact"},
	{name: "sched.pass_wall_s", unit: "s", better: "lower", on: sims, doc: "the program's own sched_pass_wall_us per repetition (inclusive of everything a pass starts)"},
	{name: "sched.job_cycle_ns", unit: "ns", better: "lower", on: sims, doc: "Submit, start, completion and finish of one job through the scheduler on an idle machine, inclusive of machine.job_cycle_ns -> ops_per_s, allocs_per_op on replay-open"},
	{name: "sched.submit_pass_ns_shallow", unit: "ns", better: "lower", on: sims, doc: "Submit + Pass with about 10 blocked jobs -> ops_per_s on replay-open"},
	{name: "sched.submit_pass_ns_deep", unit: "ns", better: "lower", on: sims, doc: "Submit + Pass with about 10,000 blocked jobs -> ops_per_s on replay-saturated"},
	{name: "sched.gate_evals", unit: "count", better: "lower", on: paper, doc: "gate_evaluations_total per repetition, exact"},
	{name: "sched.gate_vetoes", unit: "count", better: "lower", on: paper, doc: "gate_vetoes_total per repetition, exact"},
	{name: "sched.gate_decision_ns_cold", unit: "ns", better: "lower", on: paper, doc: "RUSH.Allow on a 16-node Pod512 scope the sampler has not seen within the window, inclusive of telemetry and mlkit -> ops_per_s on paper-trials"},
	{name: "sched.gate_decision_ns_warm", unit: "ns", better: "lower", on: paper, doc: "RUSH.Allow on the same scope two ticks later (the veto cooldown): the price of re-asking a vetoed job"},
	{name: "sched.gate_decision_allocs", unit: "count", better: "lower", on: paper, doc: "allocations per cold gate decision -> bytes_per_op on paper-trials"},

	{name: "telemetry.window_ns_cold", unit: "ns", better: "lower", on: paper, doc: "Sampler.AggregateWindowInto over a 16-node scope the sampler has not seen at this window -> ops_per_s on paper-trials"},
	{name: "telemetry.window_ns_warm", unit: "ns", better: "lower", on: paper, doc: "the same scope two ticks later, 32 of 320 rows new: the window behind every re-ask of a vetoed job"},
	{name: "telemetry.window_bytes", unit: "B", better: "lower", on: paper, doc: "bytes per cold window aggregation -> bytes_per_op on paper-trials"},

	{name: "mlkit.predict_ns", unit: "ns", better: "lower", on: learned, doc: "PredictProbaInto on the trained ensemble -> small on paper-trials and on the eval/miss path of serve-wire"},
	{name: "mlkit.fit_s", unit: "s", better: "lower", on: paper, doc: "AdaBoost Fit on the collected job-scope dataset -> setup_s on paper-trials"},

	{name: "core.collect_s", unit: "s", better: "lower", on: paper, doc: "core.Collect of the 120-day campaign -> setup_s on paper-trials"},
	{name: "core.train_s", unit: "s", better: "lower", on: paper, doc: "core.TrainPredictor (cross-validation + deployed fit) -> setup_s on paper-trials"},
	{name: "core.dataset_rows", unit: "count", better: "higher", on: paper, doc: "rows in the collected job-scope dataset, exact"},

	{name: "obs.emit_ns", unit: "ns", better: "lower", doc: "batched Tracer.Emit to io.Discard, per event; no end-to-end metric (tracing is off there)"},
	{name: "obs.trace_rep_overhead_share", unit: "ratio", better: "lower", on: paper, doc: "a paper-trials repetition with Config.Trace on / off - 1"},

	{name: "serve.requests", unit: "count", better: "lower", on: wire, doc: "serve_requests_total per repetition (stats op), exact"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher", on: wire, doc: "cache hits / (hits + misses), exact"},
	{name: "serve.batch_mean_size", unit: "count", better: "higher", on: wire, doc: "batched decisions / batches, exact"},
	{name: "serve.ingests", unit: "count", better: "lower", on: wire, doc: "serve_ingests_total per repetition, exact"},
	{name: "serve.busy_share", unit: "ratio", better: "lower", on: wire, doc: "backpressure drops / requests, exact"},
	{name: "serve.rtt_us_p50.decide_hit", unit: "us", better: "lower", on: wire, doc: "client-side round trip of a cached decide"},
	{name: "serve.rtt_us_p50.decide_miss", unit: "us", better: "lower", on: wire, doc: "client-side round trip of an uncached decide (feature build + batched inference)"},
	{name: "serve.rtt_us_p50.check", unit: "us", better: "lower", on: wire, doc: "client-side round trip of a check"},
	{name: "serve.rtt_us_p50.eval", unit: "us", better: "lower", on: wire, doc: "client-side round trip of an eval carrying 282 floats"},
	{name: "serve.rtt_us_p50.ingest", unit: "us", better: "lower", on: wire, doc: "client-side round trip of a full-window ingest"},
	{name: "serve.rtt_us_p99", unit: "us", better: "lower", on: wire, doc: "99th percentile round trip over all requests of the traced repetitions"},
	{name: "serve.handle_us_per_op", unit: "us", better: "lower", on: wire, doc: "the script through Server.Handle, no wire"},
	{name: "serve.handle_allocs_per_op", unit: "count", better: "lower", on: wire, doc: "allocations per request through Server.Handle"},
	{name: "serve.frame_us_per_op", unit: "us", better: "lower", on: wire, doc: "every request and response of the script through WriteFrame/ReadFrame on a bytes.Buffer"},
	{name: "serve.frame_allocs_per_op", unit: "count", better: "lower", on: wire, doc: "allocations per request for framing alone"},
	{name: "serve.transport_us_per_op", unit: "us", better: "lower", on: wire, doc: "mean round trip - handle - frame: socket, scheduler hand-offs, buffering"},

	{name: "go.gc_cycles_per_rep", unit: "count", better: "lower", doc: "GC cycles per untraced repetition -> ties allocs_per_op and bytes_per_op to ops_per_s"},
	{name: "go.gc_cpu_share", unit: "ratio", better: "lower", doc: "GC CPU seconds / total CPU seconds over the untraced repetitions (runtime/metrics)"},

	{name: "model.makespan_s", unit: "s", better: "lower", on: sims, doc: "simulated makespan (summed over the repetition's trials); a speed-only change must leave every model.* identical"},
	{name: "model.wait_mean_s", unit: "s", better: "lower", on: sims, doc: "simulated mean wait"},
	{name: "model.slowdown_mean", unit: "ratio", better: "lower", on: sims, doc: "simulated mean run time over base work"},
	{name: "model.high_variation_share", unit: "ratio", better: "lower", on: sims, doc: "share of jobs at or above the high-variation threshold"},
	{name: "model.utilization", unit: "ratio", better: "higher", on: sims, doc: "node-seconds run / (nodes x makespan)"},
}

func (m metricDef) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

func (m metricDef) workloadsLabel() string {
	if m.on == nil {
		return "all"
	}
	return strings.Join(m.on, ",")
}

// printList is -list: the workloads with why each exists, then every
// metric with unit, direction, bound and the workloads it applies to.
func printList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOADS\t\t\t\t\twhy")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t\t\t\t\t%s\n", wl.name, wl.why)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t")
	fmt.Fprintln(tw, "END-TO-END (untraced)\tunit\tbetter\tbound\tworkloads\tdefinition")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%s\t%s\n", m.name, m.unit, m.better, m.bound*100, m.workloadsLabel(), m.doc)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t")
	fmt.Fprintln(tw, "PER-LAYER (-trace 1)\tunit\tbetter\tbound\tworkloads\tdefinition")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t-\t%s\t%s\n", m.name, m.unit, m.better, m.workloadsLabel(), m.doc)
	}
	tw.Flush()
}
