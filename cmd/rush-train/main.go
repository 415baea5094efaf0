// Command rush-train reproduces the model-selection and training stage
// (Section IV-A): it cross-validates the four candidate classifiers with
// leave-one-application-out folds (Figure 3), optionally runs recursive
// feature elimination, trains the deployed three-class predictor, and
// exports it as JSON for rush-sim.
//
// Usage:
//
//	rush-train -data jobscope.csv -compare -out predictor.json
//	rush-train -data jobscope.csv -model AdaBoost -rfe -out predictor.json
//	rush-train -data jobscope.csv -train-apps AMG,Kripke,sw4lite,SWFFT -out pdpa.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rush/internal/cliflags"
	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/experiments"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rush-train: ")

	dataPath := flag.String("data", "jobscope.csv", "training dataset CSV (from rush-collect)")
	compare := flag.Bool("compare", false, "cross-validate all four candidate models (Figure 3)")
	modelName := flag.String("model", "AdaBoost", "model to deploy: ExtraTrees, DecisionForest, KNN, or AdaBoost")
	trainApps := flag.String("train-apps", "", "comma-separated apps to train on (empty = all; PDPA uses 4)")
	rfe := flag.Bool("rfe", false, "run recursive feature elimination and report the trajectory")
	seed := cliflags.Seed(1)
	metrics := cliflags.Metrics()
	out := flag.String("out", "predictor.json", "output predictor JSON")
	flag.Parse()

	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d samples from %s", ds.Len(), *dataPath)

	if *compare {
		scores, err := core.CompareModels(ds, "job-nodes", *seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.ReportFigure3(os.Stdout, scores); err != nil {
			log.Fatal(err)
		}
		best, _ := core.SelectBest(scores)
		fmt.Printf("best model: %s (F1=%.3f)\n", best.Model, best.F1)
	}

	if *rfe {
		res, err := mlkit.RFE(func() mlkit.Classifier {
			m, err := core.NewModel(core.ModelName(*modelName), *seed)
			if err != nil {
				log.Fatal(err)
			}
			return m
		}, ds.X(), ds.BinaryLabels(), mlkit.RFEConfig{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RFE: best F1 %.3f with %d features\n", res.BestF1, len(res.Selected))
		for _, step := range res.Trajectory {
			fmt.Printf("  %3d features -> F1 %.3f\n", step.NumFeatures, step.F1)
		}
	}

	var appsList []string
	if *trainApps != "" {
		appsList = strings.Split(*trainApps, ",")
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	pred, err := core.TrainPredictorObserved(ds, core.ModelName(*modelName), appsList, *seed, reg)
	if err != nil {
		log.Fatal(err)
	}
	read := make([]bool, dataset.NumFeatures)
	mlkit.MarkRead(pred.Model, read)
	counters := dataset.CounterMask(read)
	log.Printf("deployed model reads %d of %d features (%d of %d counters)",
		marked(read), dataset.NumFeatures, marked(counters[:]), telemetry.NumCounters)
	if snap := reg.Snapshot(); snap != nil {
		fmt.Println("training metrics:")
		for _, c := range snap.Counters {
			fmt.Printf("  %-20s %.0f\n", c.Name, c.Value)
		}
	}
	blob, err := pred.Save()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s predictor (stratified 5-fold F1 on variation class: %.3f) -> %s\n",
		pred.ModelName, pred.CVF1, *out)
}

// marked counts the true entries of marks.
func marked(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}
