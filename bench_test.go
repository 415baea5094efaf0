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
//	Ablations -> BenchmarkAblation*

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/experiments"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/sched"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// thin aliases so the benchmark bodies read cleanly.
var mlkitLeaveOneGroupOut = mlkit.LeaveOneGroupOut

// Shared artifacts, built once per `go test -bench` process. Model
// training (benchModelsOnce) is split from the experiment comparisons
// (benchOnce) so benchmarks that only need a predictor — e.g.
// BenchmarkParallelSpeedup, which the CI smoke target runs alone —
// skip the five-experiment sweep.
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

// BenchmarkAblationDelayOnLittle measures RUSH when the gate also delays
// on the "little variation" class — the more conservative policy the
// three-class labelling enables.
func BenchmarkAblationDelayOnLittle(b *testing.B) {
	benchSetup(b)
	spec, _ := workload.SpecByName("ADAA")
	cfg := experiments.Config{DelayOnLittle: true}
	if _, loaded := printedOnce.LoadOrStore("ablation-little", true); !loaded {
		cmp, err := experiments.RunExperiment(spec, benchPred, benchTrials, 9100, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printReports("Ablation: delay on little variation", variation(cmp), makespan(cmp))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.RUSH, benchPred, int64(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAllNodesScope measures RUSH with machine-wide counter
// aggregation at decision time (the paper's data-exclusivity comparison).
func BenchmarkAblationAllNodesScope(b *testing.B) {
	benchSetup(b)
	spec, _ := workload.SpecByName("ADAA")
	cfg := experiments.Config{AllNodesScope: true}
	if _, loaded := printedOnce.LoadOrStore("ablation-scope", true); !loaded {
		cmp, err := experiments.RunExperiment(spec, benchPred, benchTrials, 9200, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printReports("Ablation: all-nodes decision scope", variation(cmp))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.RUSH, benchPred, int64(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkAblationProbThreshold sweeps the probability-rule gate.
func BenchmarkAblationProbThreshold(b *testing.B) {
	benchSetup(b)
	spec, _ := workload.SpecByName("ADAA")
	if _, loaded := printedOnce.LoadOrStore("ablation-prob", true); !loaded {
		fmt.Printf("\n===== Ablation: probability-threshold gate =====\n")
		// Each threshold's trials are judged against their own paired
		// baseline trials (variation counts are only meaningful relative
		// to the same noise trace). SAMME vote shares dilute across the
		// three classes, so low thresholds veto aggressively and
		// thresholds past the top vote share never veto at all.
		for _, tau := range []float64{0.2, 0.3, 0.4} {
			cmp, err := experiments.RunExperiment(spec, benchPred, 2, 9400, experiments.Config{ProbThreshold: tau})
			if err != nil {
				b.Fatal(err)
			}
			ref := experiments.BaselineStats(cmp.Baseline)
			fmt.Printf("  tau=%.1f  baseline=%.1f  rush=%.1f  makespan=%.0f\n",
				tau, experiments.TotalVariation(cmp.Baseline, ref), experiments.TotalVariation(cmp.RUSH, ref), experiments.MeanMakespan(cmp.RUSH))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrial(spec, experiments.RUSH, benchPred, int64(i), experiments.Config{ProbThreshold: 0.5}); err != nil {
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

// leaveOneAppOut builds per-application CV folds from a campaign.
func leaveOneAppOut(res *core.CollectResult) ([]string, [][]int) {
	return mlkitLeaveOneGroupOut(res.JobScope.AppNames())
}

// ----- Gate-decision fast path (BENCH_gate.json) -----

// The gate benchmarks deliberately skip the 120-day benchSetup campaign:
// the fast path's contract is about per-decision cost, so a compact
// synthetic-data ensemble (same feature width and class count as the
// real predictor) keeps `make bench-gate` runnable in seconds while the
// differential tests pin equivalence to the reference path.
var (
	benchGateOnce  sync.Once
	benchGateModel mlkit.Classifier
)

func gateBenchModel(b *testing.B) mlkit.Classifier {
	b.Helper()
	benchGateOnce.Do(func() {
		rng := sim.NewSource(1234).Derive("bench-gate")
		const n = 240
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			row := make([]float64, dataset.NumFeatures)
			c := rng.Intn(3)
			for j := range row {
				row[j] = rng.Normal(float64(c)*float64(j%5)*0.2, 1.0)
			}
			x[i] = row
			y[i] = c
		}
		m := mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 30, Depth: 2, Seed: 9, Workers: 1})
		if err := m.Fit(x, y); err != nil {
			panic(err)
		}
		benchGateModel = m
	})
	return benchGateModel
}

// newBenchMachine builds a 512-node machine under ambient load, 900
// simulated seconds in, with a RUSH gate on the compact bench model.
func newBenchMachine(b *testing.B) (*machine.Machine, *sched.RUSH) {
	b.Helper()
	eng := sim.New(4242)
	m, err := machine.New(eng, cluster.Topology{Nodes: 512, PodSize: 64, CoresPerNode: 36})
	if err != nil {
		b.Fatal(err)
	}
	gate := sched.NewRUSH(m, gateBenchModel(b))
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{
		PodNet: map[int]float64{0: 0.8, 1: 0.6, 2: 0.9, 3: 0.4, 4: 0.7, 5: 0.5, 6: 0.3, 7: 0.6},
		FS:     0.3,
	})
	eng.RunUntil(900)
	return m, gate
}

// newBenchGate puts newBenchMachine's gate on the machine-wide scope,
// the heaviest decision the scheduler issues.
func newBenchGate(b *testing.B) (*sched.RUSH, *sched.Job, cluster.Allocation) {
	b.Helper()
	_, gate := newBenchMachine(b)
	gate.AllNodesScope = true
	nodes := make([]cluster.NodeID, 16)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i)
	}
	j := &sched.Job{ID: 1, App: apps.Defaults()[1]}
	return gate, j, cluster.Allocation{Nodes: nodes}
}

// BenchmarkGateDecision times one full gate decision — freshness check,
// 300-second window aggregation, MPI probes, feature assembly, ensemble
// inference. fast is the steady-state decision on the 512-node
// machine-wide scope. The job sub-benchmarks are the two decisions a RUSH
// trial is made of, both on a 16-node job scope (see benchJobScopeGate).
// All three must report 0 allocs/op, the job shapes 0 B/op too (`make
// bench-gate` enforces it).
func BenchmarkGateDecision(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		gate, j, alloc := newBenchGate(b)
		j.Skips = 0
		gate.Allow(j, alloc) // warm caches and reusable buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Skips = 0
			gate.Allow(j, alloc)
		}
	})
	// first-ask: a job's first decision on a freshly allocated node set,
	// one the sampler has not aggregated within the window, so all 320
	// rows are computed. re-ask: the same scope asked again two ticks
	// later, the scheduler's 30 s veto cooldown, when 32 rows are new.
	b.Run("job/first-ask", func(b *testing.B) { benchJobScopeGate(b, 1, true) })
	b.Run("job/re-ask", func(b *testing.B) { benchJobScopeGate(b, 2, false) })
}

// benchJobScopeGate times job-scoped decisions on newBenchMachine's gate,
// shaped like the cold and warm gate drivers of bench/drivers.go: the
// clock advances ticks sample periods between decisions, and the scope
// either rotates through 28 disjoint 16-node allocations, so each
// returns after 420 s and finds none of its rows kept, or stays put.
// History and sampler are pruned as a trial prunes them. One lap over the
// scopes before the timer starts leaves every row block allocated, which
// is the state a trial is in after its first minutes.
func benchJobScopeGate(b *testing.B, ticks int, rotate bool) {
	m, gate := newBenchMachine(b)
	m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
	eng := m.Eng
	j := &sched.Job{ID: 1, App: apps.Defaults()[1]}
	var scopes []cluster.Allocation
	for lo := 64; lo+16 <= 512; lo += 16 {
		nodes := make([]cluster.NodeID, 16)
		for i := range nodes {
			nodes[i] = cluster.NodeID(lo + i)
		}
		scopes = append(scopes, cluster.Allocation{Nodes: nodes})
	}
	ask := func(i int) {
		eng.RunUntil(eng.Now() + float64(ticks)*telemetry.SamplePeriod)
		scope := scopes[0]
		if rotate {
			scope = scopes[i%len(scopes)]
		}
		j.Skips = 0
		gate.Allow(j, scope)
	}
	for i := range scopes {
		ask(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(i)
	}
}

// ----- Training fast path (BENCH_train.json) -----

// The training benchmarks use a synthetic dataset at the deployed
// predictor's exact shape — 2000 rows × the full 282-feature Table I
// width, three classes, 2% missing values — so the measured speedups
// transfer directly to TrainPredictor. Differential tests
// (TestFastPathBitIdentical and friends) pin the fast path byte-identical
// to the reference path, so the sub-benchmarks differ only in wall clock.
var (
	benchFitOnce sync.Once
	benchFitX    [][]float64
	benchFitY    []int
)

func fitBenchData(b *testing.B) ([][]float64, []int) {
	b.Helper()
	benchFitOnce.Do(func() {
		rng := sim.NewSource(4321).Derive("bench-fit")
		const n = 2000
		benchFitX = make([][]float64, n)
		benchFitY = make([]int, n)
		for i := range benchFitX {
			row := make([]float64, dataset.NumFeatures)
			c := rng.Intn(3)
			for j := range row {
				if rng.Float64() < 0.02 {
					row[j] = math.NaN()
					continue
				}
				row[j] = rng.Normal(float64(c)*float64(j%7)*0.15, 1.0)
			}
			benchFitX[i] = row
			benchFitY[i] = c
		}
	})
	return benchFitX, benchFitY
}

// BenchmarkFit times one full Fit of each ensemble on the presorted
// column-partitioning builder. Tree counts are scaled down from the
// deployed configs (60 trees, 150 rounds) to keep `make bench-train`
// fast; the per-tree cost is what transfers. The per-node-sort oracle
// builder is reachable only from internal/mlkit's own tests, so it has
// no arm here; BENCH_train.json keeps its last measured rows.
//
// Forest is the headline: full-candidate exact splits (MaxFeatures =
// all 282), where a per-node sort would cost O(features × n log n) at
// every node. ForestSqrt and ExtraTrees are the deployed shapes
// (sqrt-candidate).
func BenchmarkFit(b *testing.B) {
	x, y := fitBenchData(b)
	models := []struct {
		name string
		mk   func() mlkit.Classifier
	}{
		{"Tree", func() mlkit.Classifier {
			return mlkit.NewTree(mlkit.TreeConfig{MaxDepth: 12})
		}},
		{"Forest", func() mlkit.Classifier {
			return mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 4, MaxDepth: 12, MaxFeatures: dataset.NumFeatures, Seed: 7, Workers: 1})
		}},
		{"ForestSqrt", func() mlkit.Classifier {
			return mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 20, MaxDepth: 12, Seed: 7, Workers: 1})
		}},
		{"ExtraTrees", func() mlkit.Classifier {
			return mlkit.NewExtraTrees(mlkit.ForestConfig{Trees: 20, MaxDepth: 14, Seed: 7, Workers: 1})
		}},
		{"AdaBoost", func() mlkit.Classifier {
			return mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 10, Depth: 2, Seed: 7, Workers: 1})
		}},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.mk().Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictProba times ensemble inference alone and is the
// 0-alloc guard on PredictProbaInto, the call the gate makes.
func BenchmarkPredictProba(b *testing.B) {
	model := gateBenchModel(b)
	fp, ok := model.(mlkit.FastProbaPredictor)
	if !ok {
		b.Fatalf("%s does not implement FastProbaPredictor", model.Name())
	}
	rng := sim.NewSource(77).Derive("bench-sample")
	sample := make([]float64, dataset.NumFeatures)
	for i := range sample {
		sample[i] = rng.Normal(0.5, 1.0)
	}
	out := make([]float64, len(fp.Classes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.PredictProbaInto(sample, out)
	}
}
