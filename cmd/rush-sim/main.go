// Command rush-sim runs one Table II scheduling experiment under
// FCFS+EASY, RUSH, or both, on the simulated machine (by default the
// paper's 512-node pod; -topo quartz simulates the full 2,988-node
// machine) with the all-to-all noise job, and prints the evaluation
// metrics.
//
// Usage:
//
//	rush-sim -experiment ADAA -predictor predictor.json -trials 5 -seed 100
//	rush-sim -experiment SS -policy baseline -trials 5
//	rush-sim -experiment ADAA -trace events.jsonl -metrics
//	rush-sim -experiment ADAA -policy baseline -topo quartz
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rush/internal/cliflags"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/faults"
	"rush/internal/lifecycle"
	"rush/internal/parallel"
	"rush/internal/sched"
	"rush/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rush-sim: ")

	expName := flag.String("experiment", "ADAA", "experiment: ADAA, ADPA, PDPA, WS, or SS")
	policy := flag.String("policy", "both", "policy: baseline, rush, canary, or both")
	predPath := flag.String("predictor", "predictor.json", "trained predictor JSON (from rush-train)")
	trials := cliflags.Trials(experiments.DefaultTrials)
	seed := cliflags.Seed(100)
	delayLittle := flag.Bool("delay-on-little", false, "also delay on the little-variation class")
	allNodes := flag.Bool("all-nodes-scope", false, "aggregate counters machine-wide at decision time")
	sjf := flag.Bool("sjf", false, "use shortest-job-first queue ordering instead of FCFS")
	backfill := flag.String("backfill", "easy", "backfill discipline: easy, none, or conservative")
	tracePath := cliflags.Trace()
	metrics := cliflags.Metrics()
	pprofPath := cliflags.Pprof()
	csvPrefix := flag.String("csv", "", "write per-job records to <prefix>-<policy>-<trial>.csv")
	nodeMTBF := flag.Float64("node-mtbf", 0, "per-node mean time between failures in seconds (0 disables node faults)")
	nodeMTTR := flag.Float64("node-mttr", 0, "per-node mean time to repair in seconds (default 1800 when -node-mtbf is set)")
	telemetryLoss := flag.Float64("telemetry-loss", 0, "probability a telemetry table sample is dropped, in [0,1]")
	telemetryFreeze := flag.Float64("telemetry-freeze", 0, "probability a node's counters freeze per window, in [0,1]")
	modelOutage := flag.Float64("model-outage", 0, "fraction of time the predictor service is unreachable, in [0,1]")
	driftStart := flag.Float64("drift-start", 0, "simulated time telemetry drift begins, in seconds")
	driftRamp := flag.Float64("drift-ramp", 0, "seconds over which drift ramps to full strength (0 = abrupt regime change)")
	driftMeanShift := flag.Float64("drift-mean-shift", 0, "relative telemetry mean shift at full drift strength (0 disables)")
	driftNoiseBoost := flag.Float64("drift-noise-boost", 0, "relative telemetry variance boost at full drift strength")
	driftTables := flag.String("drift-tables", "", "comma-separated telemetry tables to drift (empty = all)")
	lifecycleOn := flag.Bool("lifecycle", false, "enable the online model lifecycle (drift detection + shadow/canary retraining) on RUSH trials")
	lifecyclePSI := flag.Float64("lifecycle-psi", 0, "per-feature PSI drift threshold (0 = default 0.25)")
	lifecycleCanaryFrac := flag.Float64("lifecycle-canary-fraction", 0, "fraction of decisions a canary challenger acts on (0 = default 0.25)")
	lifecycleRetrainEvery := flag.Float64("lifecycle-retrain-every", 0, "also retrain on this fixed cadence in simulated seconds (0 = drift-triggered only)")
	canaryThreshold := flag.Float64("canary-threshold", 0, "canary policy probe-slowdown veto threshold (0 = default 1.6; must be positive)")
	canaryAllClasses := flag.Bool("canary-all-classes", false, "canary policy also gates compute-intensive jobs")
	workers := cliflags.Workers()
	topoFlag := cliflags.Topo()
	flag.Parse()

	topo, err := cluster.Parse(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}

	stopProfile, err := cliflags.StartCPUProfile(*pprofPath)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	spec, err := workload.SpecByName(*expName)
	if err != nil {
		log.Fatal(err)
	}
	if *trials <= 0 {
		log.Fatalf("trials must be positive, got %d", *trials)
	}
	cfg := experiments.Config{
		Topo:          topo,
		DelayOnLittle: *delayLittle, AllNodesScope: *allNodes, UseSJF: *sjf,
		Workers: *workers, Trace: *tracePath != "", Metrics: *metrics,
	}
	cfg.Faults = faults.Config{
		NodeMTBF:      *nodeMTBF,
		NodeMTTR:      *nodeMTTR,
		TelemetryLoss: *telemetryLoss,
		FreezeProb:    *telemetryFreeze,
		ModelOutage:   *modelOutage,
		Drift: faults.DriftConfig{
			Start:      *driftStart,
			Ramp:       *driftRamp,
			MeanShift:  *driftMeanShift,
			NoiseBoost: *driftNoiseBoost,
			Tables:     splitTables(*driftTables),
		},
	}
	if err := cfg.Faults.Validate(); err != nil {
		log.Fatal(err)
	}
	cfg.Lifecycle = lifecycle.Config{
		Enabled:        *lifecycleOn,
		PSIThreshold:   *lifecyclePSI,
		CanaryFraction: *lifecycleCanaryFrac,
		RetrainEvery:   *lifecycleRetrainEvery,
	}
	if *canaryThreshold < 0 {
		log.Fatalf("canary threshold must be positive, got %v", *canaryThreshold)
	}
	cfg.CanaryThreshold = *canaryThreshold
	cfg.CanaryAllClasses = *canaryAllClasses
	switch *backfill {
	case "easy":
		cfg.Backfill = sched.EASYBackfill
	case "none":
		cfg.Backfill = sched.NoBackfill
	case "conservative":
		cfg.Backfill = sched.ConservativeBackfill
	default:
		log.Fatalf("unknown backfill mode %q", *backfill)
	}

	var pred *core.Predictor
	if *policy == "rush" || *policy == "both" {
		blob, err := os.ReadFile(*predPath)
		if err != nil {
			log.Fatal(err)
		}
		if pred, err = core.LoadPredictor(blob); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %s predictor (training CV F1 %.3f)", pred.ModelName, pred.CVF1)
	}

	switch *policy {
	case "both":
		cmp, err := experiments.RunExperiment(spec, pred, *trials, *seed, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *csvPrefix != "" {
			for i := range cmp.Baseline {
				writeCSV(*csvPrefix, cmp.Baseline[i], i)
				writeCSV(*csvPrefix, cmp.RUSH[i], i)
			}
		}
		if *tracePath != "" {
			// Paired order: baseline trial i, then its RUSH twin. Trials
			// buffer their events privately, so this concatenation is
			// byte-identical at any -workers value.
			var trs []*experiments.Trial
			for i := range cmp.Baseline {
				trs = append(trs, cmp.Baseline[i], cmp.RUSH[i])
			}
			writeJSONLTrace(*tracePath, trs)
		}
		ref := experiments.BaselineStats(cmp.Baseline)
		out := os.Stdout
		check(experiments.ReportVariation(out, cmp, ref))
		check(experiments.ReportRunTimeDist(out, cmp))
		if len(spec.NodeCounts) > 1 {
			check(experiments.ReportScalingDist(out, cmp))
			check(experiments.ReportMaxImprovement(out, cmp))
		}
		check(experiments.ReportMakespan(out, []*experiments.Comparison{cmp}))
		check(experiments.ReportWaitTimes(out, cmp))
		if cfg.Faults.Enabled() {
			check(experiments.ReportFaults(out, cmp))
		}
		if *metrics {
			check(experiments.ReportMetrics(out, cmp))
		}
	case "baseline", "rush", "canary":
		pol := experiments.Baseline
		switch *policy {
		case "rush":
			pol = experiments.RUSH
		case "canary":
			pol = experiments.Canary
		}
		// Trials fan out across the pool; results slot by trial index, so
		// traces and report lines stay in trial order at any worker count.
		trs, err := parallel.Map(*workers, *trials, func(i int) (*experiments.Trial, error) {
			return experiments.RunTrial(spec, pol, pred, *seed+int64(i), cfg)
		})
		if err != nil {
			log.Fatal(err)
		}
		if *tracePath != "" {
			writeJSONLTrace(*tracePath, trs)
		}
		for i, tr := range trs {
			if *csvPrefix != "" {
				writeCSV(*csvPrefix, tr, i)
			}
			fmt.Printf("trial %d: policy=%s jobs=%d makespan=%.0fs evals=%d vetoes=%d\n",
				i, tr.Policy, len(tr.Jobs), tr.Makespan, tr.GateEvaluations, tr.GateVetoes)
			if cfg.Faults.Enabled() {
				fmt.Printf("  faults: nodefail=%d kills=%d failedjobs=%d lostwork=%.0fs degraded=%d trips=%d downtime=%.0fs\n",
					tr.NodeFailures, tr.JobKills, tr.FailedJobs, tr.LostWork, tr.GateDegraded, tr.BreakerTrips, tr.DegradedTime)
			}
			if cfg.Lifecycle.Enabled && tr.Policy == experiments.RUSH {
				fmt.Printf("  lifecycle: drift=%d retrains=%d promotions=%d rollbacks=%d shadow=%d canary-acted=%d\n",
					tr.DriftDetections, tr.Retrains, tr.Promotions, tr.Rollbacks, tr.ShadowPredictions, tr.CanaryActed)
			}
		}
		if *metrics {
			// A one-sided comparison reuses the merged-metrics renderer.
			cmp := &experiments.Comparison{Experiment: spec.Name, Spec: spec}
			if pol == experiments.Baseline {
				cmp.Baseline = trs
			} else {
				cmp.RUSH = trs
			}
			check(experiments.ReportMetrics(os.Stdout, cmp))
		}
	default:
		log.Fatalf("unknown policy %q (want baseline, rush, canary, or both)", *policy)
	}
}

// splitTables parses the -drift-tables comma list into table names.
func splitTables(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// writeJSONLTrace concatenates the trials' buffered event streams into
// one JSONL file, in the order given.
func writeJSONLTrace(path string, trs []*experiments.Trial) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	for _, tr := range trs {
		if _, err := f.Write(tr.Trace); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("wrote event trace %s", path)
}

// writeCSV dumps one trial's per-job records as CSV.
func writeCSV(prefix string, tr *experiments.Trial, trial int) {
	path := fmt.Sprintf("%s-%s-%d.csv", prefix, tr.Policy, trial)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteTrace(f); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote per-job CSV %s", path)
}
