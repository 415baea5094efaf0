package experiments

import (
	"math"
	"strings"
	"testing"

	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/sched"
	"rush/internal/workload"
)

// sharedPred trains one predictor for the whole test package (training is
// the slow step); sharedJobScope is the dataset it was trained on.
var (
	sharedPred     *core.Predictor
	sharedJobScope *dataset.Dataset
)

func predictor(t *testing.T) *core.Predictor {
	t.Helper()
	if sharedPred == nil {
		res, err := core.Collect(core.CollectConfig{Days: 30, Seed: 42, Incident: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.TrainPredictor(res.JobScope, core.ModelAdaBoost, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		sharedPred, sharedJobScope = p, res.JobScope
	}
	return sharedPred
}

func TestBaselineTrialCompletesWorkload(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	tr, err := RunTrial(spec, Baseline, nil, 7, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 190 {
		t.Fatalf("completed %d jobs", len(tr.Jobs))
	}
	if tr.Makespan <= 0 {
		t.Fatalf("makespan = %v", tr.Makespan)
	}
	// The paper's queues drain in 30-50 minutes.
	if tr.Makespan < 20*60 || tr.Makespan > 70*60 {
		t.Fatalf("makespan %v outside a plausible band", tr.Makespan)
	}
	if tr.GateEvaluations != 0 || tr.GateVetoes != 0 {
		t.Fatal("baseline must not consult the model")
	}
	immediate := 0
	for _, j := range tr.Jobs {
		if j.RunTime <= 0 || j.Wait < 0 || j.Start < j.Submit {
			t.Fatalf("job %d inconsistent: %+v", j.ID, j)
		}
		if j.Immediate {
			immediate++
		}
	}
	if immediate != 38 {
		t.Fatalf("immediate jobs = %d", immediate)
	}
}

func TestTrialDeterminismAndPairing(t *testing.T) {
	spec, _ := workload.SpecByName("ADPA")
	a, err := RunTrial(spec, Baseline, nil, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(spec, Baseline, nil, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].RunTime != b.Jobs[i].RunTime || a.Jobs[i].Start != b.Jobs[i].Start {
			t.Fatal("identical seeds must reproduce the trial exactly")
		}
	}
	c, err := RunTrial(spec, Baseline, nil, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == c.Makespan {
		t.Fatal("different seeds should differ")
	}
}

func TestRUSHRequiresPredictor(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	if _, err := RunTrial(spec, RUSH, nil, 1, Config{}); err == nil {
		t.Fatal("RUSH without a model should error")
	}
}

func TestRUSHReducesVariation(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	cmp, err := RunExperiment(spec, pred, 3, 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := BaselineStats(cmp.Baseline)
	base := TotalVariation(cmp.Baseline, ref)
	rush := TotalVariation(cmp.RUSH, ref)
	if base < 5 {
		t.Fatalf("baseline shows almost no variation (%v); noise too weak", base)
	}
	if rush >= base*0.75 {
		t.Fatalf("RUSH should cut variation markedly: baseline=%v rush=%v", base, rush)
	}
	// Makespan must not degrade significantly (paper: -66s..+ small).
	bm, rm := MeanMakespan(cmp.Baseline), MeanMakespan(cmp.RUSH)
	if rm > bm*1.08 {
		t.Fatalf("RUSH makespan blew up: %v vs %v", rm, bm)
	}
	// Wait times stay within about a minute of the baseline on average.
	bw := MeanWaitByApp(cmp.Baseline, true)
	rw := MeanWaitByApp(cmp.RUSH, true)
	for app, w := range rw {
		if math.Abs(w-bw[app]) > 90 {
			t.Fatalf("%s wait moved %.0fs", app, w-bw[app])
		}
	}
	// The skip threshold should almost never be hit (paper: never).
	for _, tr := range cmp.RUSH {
		if tr.ThresholdOverrides > len(tr.Jobs)/5 {
			t.Fatalf("threshold overrides too frequent: %d", tr.ThresholdOverrides)
		}
		if tr.GateEvaluations == 0 {
			t.Fatal("RUSH never consulted the model")
		}
	}
}

func TestRUSHImprovesMaxRunTimes(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	cmp, err := RunExperiment(spec, pred, 3, 200, Config{})
	if err != nil {
		t.Fatal(err)
	}
	imp := MaxRunTimeImprovementByNodes(cmp.Baseline, cmp.RUSH)
	if len(imp) != 7 {
		t.Fatalf("improvement covers %d apps", len(imp))
	}
	better := 0
	for app, byNodes := range imp {
		v := byNodes[16]
		if v > 0 {
			better++
		}
		if v < -8 {
			t.Fatalf("%s max run time regressed by %.1f%%", app, -v)
		}
	}
	if better < 5 {
		t.Fatalf("only %d/7 apps improved their max run time", better)
	}
}

func TestRunExperimentShapes(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADPA")
	cmp, err := RunExperiment(spec, pred, 2, 300, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Baseline) != 2 || len(cmp.RUSH) != 2 {
		t.Fatalf("trial counts wrong: %d/%d", len(cmp.Baseline), len(cmp.RUSH))
	}
	apps := AppsIn(cmp.Baseline)
	if len(apps) != 3 {
		t.Fatalf("ADPA runs 3 apps, saw %v", apps)
	}
	// Paired: same seed -> same workload arrival times across policies.
	bj, rj := cmp.Baseline[0].Jobs, cmp.RUSH[0].Jobs
	bByID := map[int]JobRecord{}
	for _, j := range bj {
		bByID[j.ID] = j
	}
	for _, j := range rj {
		if bByID[j.ID].Submit != j.Submit || bByID[j.ID].App != j.App {
			t.Fatal("paired trials diverge in workload")
		}
	}
}

func TestScalingExperimentRuns(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("WS")
	cmp, err := RunExperiment(spec, pred, 1, 400, Config{})
	if err != nil {
		t.Fatal(err)
	}
	byNodes := RunTimesByAppNodes(cmp.Baseline)
	for _, app := range AppsIn(cmp.Baseline) {
		for _, n := range []int{8, 16, 32} {
			if len(byNodes[app][n]) == 0 {
				t.Fatalf("no %d-node runs for %s", n, app)
			}
		}
	}
	impByNodes := MaxRunTimeImprovementByNodes(cmp.Baseline, cmp.RUSH)
	if len(impByNodes) == 0 {
		t.Fatal("no scaling improvements computed")
	}
}

func TestBaselineStatsOnly16Nodes(t *testing.T) {
	trials := []*Trial{{
		Jobs: []JobRecord{
			{App: "A", Nodes: 16, RunTime: 100},
			{App: "A", Nodes: 16, RunTime: 110},
			{App: "A", Nodes: 32, RunTime: 999}, // must be excluded
		},
	}}
	st := BaselineStats(trials)
	if st["A"].N != 2 {
		t.Fatalf("stats used %d runs, want 2", st["A"].N)
	}
	if st["A"].Mean != 105 {
		t.Fatalf("mean = %v", st["A"].Mean)
	}
}

func TestVariationCountsAgainstReference(t *testing.T) {
	trials := []*Trial{{
		Jobs: []JobRecord{
			{App: "A", Nodes: 16, RunTime: 100},
			{App: "A", Nodes: 16, RunTime: 130}, // z = 3 -> variation
			{App: "A", Nodes: 32, RunTime: 500}, // wrong node count -> skipped
		},
	}}
	ref := BaselineStats([]*Trial{{
		Jobs: []JobRecord{
			{App: "A", Nodes: 16, RunTime: 90},
			{App: "A", Nodes: 16, RunTime: 100},
			{App: "A", Nodes: 16, RunTime: 110},
		},
	}})
	counts := VariationCounts(trials[0], ref)
	if counts["A"] != 1 {
		t.Fatalf("variation counts = %v", counts)
	}
	if tv := TotalVariation(trials, ref); tv != 1 {
		t.Fatalf("total variation = %v", tv)
	}
}

func TestMeanWaitExcludesImmediate(t *testing.T) {
	trials := []*Trial{{
		Jobs: []JobRecord{
			{App: "A", Wait: 100, Immediate: true},
			{App: "A", Wait: 10},
			{App: "A", Wait: 20},
		},
	}}
	all := MeanWaitByApp(trials, false)
	excl := MeanWaitByApp(trials, true)
	if math.Abs(all["A"]-130.0/3) > 1e-9 {
		t.Fatalf("all waits = %v", all["A"])
	}
	if excl["A"] != 15 {
		t.Fatalf("non-immediate waits = %v", excl["A"])
	}
}

func TestMaxRunTimeImprovementMath(t *testing.T) {
	base := []*Trial{{Jobs: []JobRecord{
		{App: "A", Nodes: 16, RunTime: 100},
		{App: "A", Nodes: 16, RunTime: 200},
	}}}
	rush := []*Trial{{Jobs: []JobRecord{
		{App: "A", Nodes: 16, RunTime: 100},
		{App: "A", Nodes: 16, RunTime: 180},
	}}}
	imp := MaxRunTimeImprovementByNodes(base, rush)
	if math.Abs(imp["A"][16]-10) > 1e-9 {
		t.Fatalf("improvement = %v, want 10%%", imp["A"][16])
	}
}

func TestSummaryByApp(t *testing.T) {
	trials := []*Trial{{Jobs: []JobRecord{
		{App: "A", RunTime: 100},
		{App: "A", RunTime: 120},
		{App: "B", RunTime: 50},
	}}}
	sum := SummaryByApp(trials)
	if sum["A"].N != 2 || sum["A"].Max != 120 || sum["B"].N != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestUtilization(t *testing.T) {
	tr := &Trial{
		Makespan: 100,
		Jobs: []JobRecord{
			{Nodes: 10, RunTime: 50},
			{Nodes: 5, RunTime: 100},
		},
	}
	// busy = 10*50 + 5*100 = 1000; capacity = 20*100 = 2000.
	if got := Utilization(tr, 20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if Utilization(&Trial{}, 20) != 0 {
		t.Fatal("empty trial utilization should be 0")
	}
	if got := MeanUtilization([]*Trial{tr, tr}, 20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean utilization = %v", got)
	}
	if MeanUtilization(nil, 20) != 0 {
		t.Fatal("no-trial utilization should be 0")
	}
}

func TestCanaryPolicyRuns(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	tr, err := RunTrial(spec, Canary, nil, 7, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 190 {
		t.Fatalf("canary trial completed %d jobs", len(tr.Jobs))
	}
	if tr.GateEvaluations == 0 {
		t.Fatal("canary never probed")
	}
	// The canary gate should delay at least occasionally under noise.
	if tr.GateVetoes == 0 {
		t.Log("canary issued no vetoes in this trial (noise never crossed the threshold)")
	}
}

// TestBackfillAndSJFConfigs runs the SJF ablation: UseSJF orders the
// queue, and with it the EASY backfill candidates, shortest first. The
// trial must drain, still backfill, and schedule differently from FCFS.
func TestBackfillAndSJFConfigs(t *testing.T) {
	spec, _ := workload.SpecByName("WS") // mixed node counts: EASY has gaps to fill
	var traces []string
	for _, sjf := range []bool{false, true} {
		tr, err := RunTrial(spec, Baseline, nil, 3, Config{UseSJF: sjf, Trace: true})
		if err != nil {
			t.Fatalf("sjf=%v: %v", sjf, err)
		}
		if len(tr.Jobs) != spec.NumJobs {
			t.Fatalf("sjf=%v: completed %d of %d jobs", sjf, len(tr.Jobs), spec.NumJobs)
		}
		if !strings.Contains(string(tr.Trace), `"kind":"backfill"`) {
			t.Fatalf("sjf=%v: no job was backfilled", sjf)
		}
		traces = append(traces, string(tr.Trace))
	}
	if traces[0] == traces[1] {
		t.Fatal("UseSJF left the schedule unchanged")
	}
}

// TestPerJobSkipThresholds runs a full ADAA RUSH trial in which every
// fifth job may never be delayed (SkipThreshold -1) and every third
// tolerates two delays: the paper's per-job priority extension, pinned
// in sched by TestNeverDelayJobIgnoresGate and
// TestSkipThresholdForcesStart, must hold under the trained gate too.
func TestPerJobSkipThresholds(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	jobs, err := workload.Generate(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	limit := map[int]int{}
	for i, sj := range jobs {
		switch {
		case i%5 == 0:
			sj.Job.SkipThreshold = -1
			limit[sj.Job.ID] = 0
		case i%3 == 0:
			sj.Job.SkipThreshold = 2
			limit[sj.Job.ID] = 2
		default:
			limit[sj.Job.ID] = sched.DefaultSkipThreshold
		}
	}
	tr, err := RunTrialJobs("ADAA-priorities", jobs, RUSH, predictor(t), 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != len(jobs) {
		t.Fatalf("completed %d of %d jobs", len(tr.Jobs), len(jobs))
	}
	bound, unbound := 0, 0
	for _, j := range tr.Jobs {
		if j.Skips > limit[j.ID] {
			t.Errorf("job %d delayed %d times, limit %d", j.ID, j.Skips, limit[j.ID])
		}
		if limit[j.ID] == 2 && j.Skips == 2 {
			bound++
		}
		if limit[j.ID] == sched.DefaultSkipThreshold && j.Skips > 2 {
			unbound++
		}
	}
	// The limits must have been what stopped the gate, or the test is
	// vacuous: some two-delay job reached its limit and some default
	// job was delayed more often than that.
	if bound == 0 || unbound == 0 {
		t.Fatalf("gate too quiet to test the limits: %d jobs at the two-delay limit, %d default jobs past it", bound, unbound)
	}
}
