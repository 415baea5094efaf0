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

	"rush/internal/cliflags"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/faults"
	"rush/internal/parallel"
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
	sjf := flag.Bool("sjf", false, "use shortest-job-first queue ordering instead of FCFS")
	tracePath := cliflags.Trace()
	metrics := cliflags.Metrics()
	pprofPath := cliflags.Pprof()
	nodeMTBF := flag.Float64("node-mtbf", 0, "per-node mean time between failures in seconds (0 disables node faults)")
	nodeMTTR := flag.Float64("node-mttr", 0, "per-node mean time to repair in seconds (default 1800 when -node-mtbf is set)")
	telemetryLoss := flag.Float64("telemetry-loss", 0, "probability a telemetry table sample is dropped, in [0,1]")
	telemetryFreeze := flag.Float64("telemetry-freeze", 0, "probability a node's counters freeze per window, in [0,1]")
	modelOutage := flag.Float64("model-outage", 0, "fraction of time the predictor service is unreachable, in [0,1]")
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
		Topo: topo, UseSJF: *sjf,
		Workers: *workers, Trace: *tracePath != "", Metrics: *metrics,
	}
	cfg.Faults = faults.Config{
		NodeMTBF:      *nodeMTBF,
		NodeMTTR:      *nodeMTTR,
		TelemetryLoss: *telemetryLoss,
		FreezeProb:    *telemetryFreeze,
		ModelOutage:   *modelOutage,
	}
	if err := cfg.Faults.Validate(); err != nil {
		log.Fatal(err)
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
		trs := make([]*experiments.Trial, *trials)
		err := parallel.Run(*workers, *trials, func(i int) (err error) {
			trs[i], err = experiments.RunTrial(spec, pol, pred, *seed+int64(i), cfg)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		if *tracePath != "" {
			writeJSONLTrace(*tracePath, trs)
		}
		for i, tr := range trs {
			fmt.Printf("trial %d: policy=%s jobs=%d makespan=%.0fs evals=%d vetoes=%d\n",
				i, tr.Policy, len(tr.Jobs), tr.Makespan, tr.GateEvaluations, tr.GateVetoes)
			if cfg.Faults.Enabled() {
				fmt.Printf("  faults: nodefail=%d kills=%d failedjobs=%d lostwork=%.0fs degraded=%d trips=%d downtime=%.0fs\n",
					tr.NodeFailures, tr.JobKills, tr.FailedJobs, tr.LostWork, tr.GateDegraded, tr.BreakerTrips, tr.DegradedTime)
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
