// Quickstart: the smallest end-to-end RUSH pipeline — collect a short
// campaign, train the variability predictor, run one paired scheduling
// comparison, and print what changed.
package main

import (
	"fmt"
	"log"
	"os"

	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/experiments"
	"rush/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Collect two weeks of control-job data on the simulated cluster.
	fmt.Println("collecting a 14-day campaign (7 proxy apps, 2-3 runs/day)...")
	res, err := core.Collect(core.CollectConfig{Days: 14, Seed: 7, Incident: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d samples, %d features each\n\n", res.JobScope.Len(), dataset.NumFeatures)

	// 2. Train the deployed three-class predictor (AdaBoost, as in the
	// paper).
	pred, err := core.TrainPredictor(res.JobScope, core.ModelAdaBoost, nil, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s predictor, stratified-CV F1 on the variation class: %.2f\n\n",
		pred.ModelName, pred.CVF1)

	// 3. Run the ADAA experiment once under each policy.
	spec, err := workload.SpecByName("ADAA")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running ADAA: 190 jobs on a 512-node pod with a noise job...")
	cmp, err := experiments.RunExperiment(spec, pred, 2, 1, experiments.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare.
	ref := experiments.BaselineStats(cmp.Baseline)
	if err := experiments.ReportVariation(os.Stdout, cmp, ref); err != nil {
		log.Fatal(err)
	}
	if err := experiments.ReportMakespan(os.Stdout, []*experiments.Comparison{cmp}); err != nil {
		log.Fatal(err)
	}
}
