// Command rush-experiments reproduces the paper's entire evaluation in
// one run: it collects the longitudinal dataset, cross-validates the four
// candidate models on both aggregation scopes (Figure 3), trains the
// deployed predictors (full-data and PDPA's partial-data variant), runs
// all five Table II experiments under both policies, and prints every
// figure and table of Section VII.
//
// Usage:
//
//	rush-experiments                 # full evaluation (~2-4 minutes)
//	rush-experiments -quick          # reduced campaign and trial count
//	rush-experiments -quick -metrics # append the per-policy metrics report
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rush/internal/cliflags"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/parallel"
	"rush/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rush-experiments: ")

	days := flag.Int("days", 120, "collection campaign length in days")
	trials := cliflags.Trials(experiments.DefaultTrials)
	seed := cliflags.Seed(42)
	quick := flag.Bool("quick", false, "shrink campaign and trials for a fast smoke run")
	metrics := cliflags.Metrics()
	pprofPath := cliflags.Pprof()
	workers := cliflags.Workers()
	topoFlag := cliflags.Topo()
	flag.Parse()
	if *quick {
		*days = 30
		*trials = 2
	}
	topo, err := cluster.Parse(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("running with %d workers", parallel.Workers(*workers))

	stopProfile, err := cliflags.StartCPUProfile(*pprofPath)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	out := os.Stdout
	start := time.Now()
	check(experiments.ReportTableI(out))
	fmt.Println()

	// Stage 1: longitudinal collection (Section III, Figure 1).
	log.Printf("collecting %d-day campaign...", *days)
	stage := time.Now()
	res, err := core.Collect(core.CollectConfig{Days: *days, Seed: *seed, Incident: true})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("collected %d samples in %v", res.JobScope.Len(), since(&stage))
	check(experiments.ReportFigure1(out, res.JobScope))
	fmt.Println()

	// Stage 2: model selection on both scopes (Section IV-A, Figure 3).
	log.Print("cross-validating candidate models (job-node scope)...")
	jobScores, err := core.CompareModels(res.JobScope, "job-nodes", *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("cross-validated the job-node scope in %v", since(&stage))
	log.Print("cross-validating candidate models (all-node scope)...")
	allScores, err := core.CompareModels(res.AllScope, "all-nodes", *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("cross-validated the all-node scope in %v", since(&stage))
	check(experiments.ReportFigure3(out, append(jobScores, allScores...)))
	best, _ := core.SelectBest(jobScores)
	fmt.Printf("selected model: %s (F1=%.3f)\n\n", best.Model, best.F1)

	// Stage 3: deployed predictors. The paper deploys AdaBoost; PDPA
	// uses a model trained only on the other four applications.
	pred, err := core.TrainPredictor(res.JobScope, core.ModelAdaBoost, nil, *seed)
	if err != nil {
		log.Fatal(err)
	}
	pdpaSpec, _ := workload.SpecByName("PDPA")
	pdpaPred, err := core.TrainPredictor(res.JobScope, core.ModelAdaBoost, pdpaSpec.TrainApps, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trained the deployed predictors (full and PDPA) in %v", since(&stage))

	check(experiments.ReportTableII(out))
	fmt.Println()

	// Stage 4: the five scheduling experiments (Section VII).
	var all []*experiments.Comparison
	for _, spec := range workload.TableII() {
		p := pred
		if len(spec.TrainApps) > 0 {
			p = pdpaPred
		}
		log.Printf("running %s (%d paired trials)...", spec.Name, *trials)
		cmp, err := experiments.RunExperiment(spec, p, *trials, *seed*1000,
			experiments.Config{Topo: topo, Workers: *workers, Metrics: *metrics})
		if err != nil {
			log.Fatal(err)
		}
		all = append(all, cmp)
	}
	log.Printf("ran %d experiments in %v", len(all), since(&stage))
	byName := map[string]*experiments.Comparison{}
	for _, cmp := range all {
		byName[cmp.Experiment] = cmp
	}

	// Figures 5 and 4: variation counts.
	adaa := byName["ADAA"]
	check(experiments.ReportVariation(out, adaa, experiments.BaselineStats(adaa.Baseline)))
	fmt.Println()
	for _, name := range []string{"ADPA", "PDPA"} {
		cmp := byName[name]
		check(experiments.ReportVariation(out, cmp, experiments.BaselineStats(cmp.Baseline)))
		fmt.Println()
	}

	// Figures 6 and 7: run-time distributions.
	check(experiments.ReportRunTimeDist(out, adaa))
	fmt.Println()
	check(experiments.ReportRunTimeDist(out, byName["PDPA"]))
	fmt.Println()

	// Figures 8 and 9: scaling.
	check(experiments.ReportScalingDist(out, byName["WS"]))
	fmt.Println()
	check(experiments.ReportMaxImprovement(out, byName["SS"]))
	fmt.Println()

	// Figures 10 and 11: makespan and wait times.
	check(experiments.ReportMakespan(out, all))
	fmt.Println()
	check(experiments.ReportWaitTimes(out, adaa))

	if *metrics {
		for _, cmp := range all {
			fmt.Println()
			check(experiments.ReportMetrics(out, cmp))
		}
	}

	log.Printf("full evaluation finished in %v", time.Since(start).Round(time.Second))
}

// since returns the wall time elapsed from *start, to the millisecond,
// and restarts the clock for the next stage.
func since(start *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*start).Round(time.Millisecond)
	*start = now
	return d
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
