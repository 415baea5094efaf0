package rush

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Each benchmark times the computation that produces
// its artifact and, on the first run, prints the same rows/series the
// paper reports (run with `go test -bench . -benchmem`).
//
//	Figure 1  -> BenchmarkFigure1Longitudinal
//	Table I   -> BenchmarkTable1DatasetAssembly
//	Figure 3  -> BenchmarkFigure3ModelF1
//	Table II  -> BenchmarkTable2Workloads
//	Figure 5  -> BenchmarkFigure5VariationADAA
//	Figure 4  -> BenchmarkFigure4VariationADPAPDPA
//	Figure 6  -> BenchmarkFigure6RuntimeDistADAA
//	Figure 7  -> BenchmarkFigure7RuntimeDistPDPA
//	Figure 8  -> BenchmarkFigure8WeakScaling
//	Figure 9  -> BenchmarkFigure9StrongScaling
//	Figure 10 -> BenchmarkFigure10Makespan
//	Figure 11 -> BenchmarkFigure11WaitTimes
//	Ablations -> BenchmarkAblationSJF, BenchmarkAblationCanary

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/workload"
)

// Shared artifacts, built once per `go test -bench` process. Model
// training (benchModelsOnce) is split from the experiment comparisons
// (benchOnce) so benchmarks that only need a predictor — e.g.
// BenchmarkParallelSpeedup, run on its own — skip the five-experiment
// sweep.
var (
	benchModelsOnce sync.Once
	benchOnce       sync.Once
	benchCampaign   *core.CollectResult
	benchPred       *core.Predictor
	benchPDPAPred   *core.Predictor
	benchCmps       map[string]*experiments.Comparison
	printedOnce     sync.Map
)

const (
	benchDays   = 120
	benchSeed   = 42
	benchTrials = 5
)

func benchModels(b *testing.B) {
	b.Helper()
	benchModelsOnce.Do(func() {
		var err error
		benchCampaign, err = core.Collect(core.CollectConfig{Days: benchDays, Seed: benchSeed, Incident: true})
		if err != nil {
			panic(err)
		}
		benchPred, err = core.TrainPredictor(benchCampaign.JobScope, core.ModelAdaBoost, nil, benchSeed)
		if err != nil {
			panic(err)
		}
		pdpa, _ := workload.SpecByName("PDPA")
		benchPDPAPred, err = core.TrainPredictor(benchCampaign.JobScope, core.ModelAdaBoost, pdpa.TrainApps, benchSeed)
		if err != nil {
			panic(err)
		}
	})
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchModels(b)
	benchOnce.Do(func() {
		benchCmps = map[string]*experiments.Comparison{}
		for _, spec := range workload.TableII() {
			p := benchPred
			if len(spec.TrainApps) > 0 {
				p = benchPDPAPred
			}
			cmp, err := experiments.RunExperiment(spec, p, benchTrials, 42000, experiments.Config{})
			if err != nil {
				panic(err)
			}
			benchCmps[spec.Name] = cmp
		}
	})
}

// report is one writer-based renderer with its arguments bound.
type report func(io.Writer) error

// printOnce emits an artifact the first time its key is seen, so repeated
// benchmark iterations do not flood the output.
func printOnce(key string, artifact ...report) {
	if _, loaded := printedOnce.LoadOrStore(key, true); !loaded {
		printReports(key, artifact...)
	}
}

// printReports writes a titled artifact to standard output.
func printReports(title string, artifact ...report) {
	fmt.Printf("\n===== %s =====\n", title)
	for _, r := range artifact {
		if err := r(os.Stdout); err != nil {
			panic(err)
		}
	}
}

// variation binds experiments.ReportVariation to cmp judged against its
// own baseline trials.
func variation(cmp *experiments.Comparison) report {
	return func(w io.Writer) error {
		return experiments.ReportVariation(w, cmp, experiments.BaselineStats(cmp.Baseline))
	}
}

// makespan binds experiments.ReportMakespan to cmps.
func makespan(cmps ...*experiments.Comparison) report {
	return func(w io.Writer) error { return experiments.ReportMakespan(w, cmps) }
}

// BenchmarkFigure1Longitudinal measures the data-collection campaign (a
// one-week slice per iteration) and prints the Figure 1 longitudinal
// variability table from the shared 60-day campaign.
func BenchmarkFigure1Longitudinal(b *testing.B) {
	benchSetup(b)
	printOnce("Figure 1: longitudinal variability", func(w io.Writer) error { return experiments.ReportFigure1(w, benchCampaign.JobScope) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Collect(core.CollectConfig{Days: 7, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DatasetAssembly measures assembling one 282-feature
// Table I vector from live telemetry (the per-decision cost RUSH pays)
// and prints the dataset inventory.
func BenchmarkTable1DatasetAssembly(b *testing.B) {
	benchSetup(b)
	printOnce("Table I: dataset inventory", experiments.ReportTableI)
	spec, _ := workload.SpecByName("ADAA")
	// One RUSH trial performs one feature assembly per gate evaluation;
	// time trials and report per-evaluation cost via custom metric.
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunTrial(spec, experiments.RUSH, benchPred, int64(i), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		evals += tr.GateEvaluations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "gate-evals/trial")
}

// BenchmarkFigure3ModelF1 measures training the deployed AdaBoost model
// and prints the four-model, two-scope F1 comparison.
func BenchmarkFigure3ModelF1(b *testing.B) {
	benchSetup(b)
	if _, loaded := printedOnce.LoadOrStore("fig3", true); !loaded {
		jobScores, err := core.CompareModels(benchCampaign.JobScope, "job-nodes", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		allScores, err := core.CompareModels(benchCampaign.AllScope, "all-nodes", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		printReports("Figure 3: model F1 comparison", func(w io.Writer) error {
			return experiments.ReportFigure3(w, append(jobScores, allScores...))
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainPredictor(benchCampaign.JobScope, core.ModelAdaBoost, nil, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Workloads measures workload generation and prints the
// experiment definitions.
func BenchmarkTable2Workloads(b *testing.B) {
	printOnce("Table II: experiments", experiments.ReportTableII)
	specs := workload.TableII()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := workload.Generate(spec, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchTrialExperiment times one paired trial of the named experiment.
func benchTrialExperiment(b *testing.B, name string, print func(io.Writer, *experiments.Comparison) error) {
	benchSetup(b)
	cmp := benchCmps[name]
	printOnce(fmt.Sprintf("%s via %s", b.Name(), name), func(w io.Writer) error { return print(w, cmp) })
	spec, _ := workload.SpecByName(name)
	pred := benchPred
	if len(spec.TrainApps) > 0 {
		pred = benchPDPAPred
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.RUSH, pred, int64(i), experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5VariationADAA regenerates the ADAA variation counts.
func BenchmarkFigure5VariationADAA(b *testing.B) {
	benchTrialExperiment(b, "ADAA", func(w io.Writer, cmp *experiments.Comparison) error {
		return experiments.ReportVariation(w, cmp, experiments.BaselineStats(cmp.Baseline))
	})
}

// BenchmarkFigure4VariationADPAPDPA regenerates the ADPA and PDPA
// variation counts (generalization to unseen applications).
func BenchmarkFigure4VariationADPAPDPA(b *testing.B) {
	benchSetup(b)
	adpa, pdpa := benchCmps["ADPA"], benchCmps["PDPA"]
	printOnce("Figure 4: ADPA vs PDPA variation", variation(adpa), variation(pdpa))
	spec, _ := workload.SpecByName("PDPA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.RUSH, benchPDPAPred, int64(i), experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6RuntimeDistADAA regenerates the ADAA run-time
// distributions.
func BenchmarkFigure6RuntimeDistADAA(b *testing.B) {
	benchTrialExperiment(b, "ADAA", experiments.ReportRunTimeDist)
}

// BenchmarkFigure7RuntimeDistPDPA regenerates the PDPA run-time
// distributions.
func BenchmarkFigure7RuntimeDistPDPA(b *testing.B) {
	benchTrialExperiment(b, "PDPA", experiments.ReportRunTimeDist)
}

// BenchmarkFigure8WeakScaling regenerates the weak-scaling run-time
// ranges.
func BenchmarkFigure8WeakScaling(b *testing.B) {
	benchTrialExperiment(b, "WS", experiments.ReportScalingDist)
}

// BenchmarkFigure9StrongScaling regenerates the strong-scaling percent
// improvements.
func BenchmarkFigure9StrongScaling(b *testing.B) {
	benchTrialExperiment(b, "SS", experiments.ReportMaxImprovement)
}

// BenchmarkFigure10Makespan regenerates the per-experiment makespans.
func BenchmarkFigure10Makespan(b *testing.B) {
	benchSetup(b)
	var all []*experiments.Comparison
	for _, spec := range workload.TableII() {
		all = append(all, benchCmps[spec.Name])
	}
	printOnce("Figure 10: makespans", makespan(all...))
	spec, _ := workload.SpecByName("ADAA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.Baseline, nil, int64(i), experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11WaitTimes regenerates the ADAA per-app wait times.
func BenchmarkFigure11WaitTimes(b *testing.B) {
	benchTrialExperiment(b, "ADAA", experiments.ReportWaitTimes)
}

// BenchmarkAblationSJF measures RUSH layered over shortest-job-first
// queue ordering (the paper: the modification composes with any static
// ordering policy).
func BenchmarkAblationSJF(b *testing.B) {
	benchSetup(b)
	spec, _ := workload.SpecByName("ADAA")
	cfg := experiments.Config{UseSJF: true}
	if _, loaded := printedOnce.LoadOrStore("ablation-sjf", true); !loaded {
		cmp, err := experiments.RunExperiment(spec, benchPred, benchTrials, 9300, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printReports("Ablation: SJF + RUSH", variation(cmp), makespan(cmp))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.RUSH, benchPred, int64(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCanary compares RUSH against the model-free
// canary-probe gate on the ADAA workload: same live signal, no learning.
func BenchmarkAblationCanary(b *testing.B) {
	benchSetup(b)
	spec, _ := workload.SpecByName("ADAA")
	if _, loaded := printedOnce.LoadOrStore("ablation-canary", true); !loaded {
		ref := experiments.BaselineStats(benchCmps["ADAA"].Baseline)
		var canaryTrials []*experiments.Trial
		for i := 0; i < benchTrials; i++ {
			tr, err := experiments.RunTrial(spec, experiments.Canary, nil, 42000+int64(i), experiments.Config{})
			if err != nil {
				b.Fatal(err)
			}
			canaryTrials = append(canaryTrials, tr)
		}
		fmt.Printf("\n===== Ablation: canary gate vs RUSH =====\n")
		fmt.Printf("  total variation: FCFS+EASY=%.1f  Canary=%.1f  RUSH=%.1f\n",
			experiments.TotalVariation(benchCmps["ADAA"].Baseline, ref),
			experiments.TotalVariation(canaryTrials, ref),
			experiments.TotalVariation(benchCmps["ADAA"].RUSH, ref))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.Canary, nil, int64(i), experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSpeedup measures the worker-pool fan-out on the
// 5-trial ADAA experiment (10 independent trials per iteration) at 1,
// 2, 4, and 8 workers. Every worker count produces byte-identical
// comparisons — pinned by TestRunExperimentParallelDeterminism — so the
// sub-benchmarks differ only in wall clock. The first run prints the
// measured speedup table that EXPERIMENTS.md quotes.
func BenchmarkParallelSpeedup(b *testing.B) {
	benchModels(b)
	spec, _ := workload.SpecByName("ADAA")
	run := func(workers int) {
		if _, err := experiments.RunExperiment(spec, benchPred, benchTrials, 42000,
			experiments.Config{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	if _, loaded := printedOnce.LoadOrStore("parallel-speedup", true); !loaded {
		var serial time.Duration
		fmt.Printf("\n===== Parallel speedup: 5-trial ADAA experiment =====\n")
		for _, w := range []int{1, 2, 4, 8} {
			start := time.Now()
			run(w)
			el := time.Since(start)
			if w == 1 {
				serial = el
			}
			fmt.Printf("  workers=%d  %8.2fs  speedup %.2fx\n",
				w, el.Seconds(), serial.Seconds()/el.Seconds())
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(w)
			}
		})
	}
}
