package experiments

import (
	"io"
	"reflect"
	"testing"

	"rush/internal/faults"
	"rush/internal/workload"
)

func faultedConfig() Config {
	return Config{Faults: faults.Config{
		NodeMTBF:      50 * 3600,
		NodeMTTR:      600,
		TelemetryLoss: 0.1,
		FreezeProb:    0.05,
		ModelOutage:   0.2,
	}}
}

// A faulted trial is exactly as reproducible as a clean one: same seed
// and fault config, same everything.
func TestFaultedTrialDeterminism(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	a, err := RunTrial(spec, RUSH, pred, 5, faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(spec, RUSH, pred, 5, faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seed and fault config must reproduce the trial bit-exactly")
	}
}

// With the predictor unreachable 100% of the time, the RUSH gate fails
// open on every decision and the trial must match the plain FCFS+EASY
// baseline job for job.
func TestFullModelOutageMatchesBaseline(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	cfg := Config{Faults: faults.Config{ModelOutage: 1}}
	base, err := RunTrial(spec, Baseline, nil, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rush, err := RunTrial(spec, RUSH, pred, 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rush.GateEvaluations != 0 {
		t.Fatalf("an unreachable model was evaluated %d times", rush.GateEvaluations)
	}
	if rush.GateDegraded == 0 {
		t.Fatal("full outage should count degraded decisions")
	}
	if rush.BreakerTrips == 0 || rush.DegradedTime <= 0 {
		t.Fatalf("breaker should trip and accrue downtime: trips=%d time=%v",
			rush.BreakerTrips, rush.DegradedTime)
	}
	if len(rush.Jobs) != len(base.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(rush.Jobs), len(base.Jobs))
	}
	for i := range base.Jobs {
		if rush.Jobs[i].Start != base.Jobs[i].Start || rush.Jobs[i].End != base.Jobs[i].End {
			t.Fatalf("job %d diverged from baseline under full outage: rush=%+v base=%+v",
				base.Jobs[i].ID, rush.Jobs[i], base.Jobs[i])
		}
	}
	if rush.Makespan != base.Makespan {
		t.Fatalf("makespan diverged: %v vs %v", rush.Makespan, base.Makespan)
	}
}

// Node churn kills jobs mid-run; the workload must still drain, with
// killed jobs requeued (or failed) and the lost work accounted.
func TestNodeChurnTrialDrains(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	cfg := Config{Faults: faults.Config{NodeMTBF: 20 * 3600, NodeMTTR: 600}}
	tr, err := RunTrial(spec, Baseline, nil, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeFailures == 0 {
		t.Fatal("aggressive MTBF should fail some nodes")
	}
	if len(tr.Jobs) != 190 {
		t.Fatalf("workload did not drain: %d jobs", len(tr.Jobs))
	}
	retried := 0
	for _, j := range tr.Jobs {
		if j.Retries > 0 {
			retried++
			if !j.Failed && j.RunTime <= 0 {
				t.Fatalf("retried job %d has no final run time: %+v", j.ID, j)
			}
		}
	}
	if tr.JobKills > 0 && retried == 0 {
		t.Fatalf("%d kills but no job records a retry", tr.JobKills)
	}
	if tr.JobKills > 0 && tr.LostWork <= 0 {
		t.Fatal("kills must account lost work")
	}
}

func TestFaultMatrixSmoke(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	scenarios := []FaultScenario{
		{Name: "clean"},
		{Name: "outage", Faults: faults.Config{ModelOutage: 0.5}},
	}
	rows, err := FaultMatrix(spec, pred, scenarios, 1, 31, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, row := range rows {
		if row.Scenario.Name != scenarios[i].Name {
			t.Fatalf("row %d scenario %q", i, row.Scenario.Name)
		}
		if len(row.Cmp.Baseline) != 1 || len(row.Cmp.RUSH) != 1 {
			t.Fatalf("row %d trial counts wrong", i)
		}
	}
	clean := rows[0].Cmp.RUSH[0]
	if clean.GateDegraded != 0 || clean.NodeFailures != 0 {
		t.Fatalf("clean scenario injected faults: %+v", clean)
	}
	if rows[1].Cmp.RUSH[0].GateDegraded == 0 {
		t.Fatal("outage scenario should degrade some gate decisions")
	}
	if out := renderText(t, func(w io.Writer) error { return ReportFaults(w, rows[1].Cmp) }); out == "" {
		t.Fatal("fault report is empty")
	}
}

func TestDefaultFaultScenarios(t *testing.T) {
	scs := DefaultFaultScenarios()
	if len(scs) < 4 {
		t.Fatalf("only %d scenarios", len(scs))
	}
	if scs[0].Faults.Enabled() {
		t.Fatal("first scenario should be the clean control")
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if sc.Name == "" || seen[sc.Name] {
			t.Fatalf("scenario names must be unique and non-empty: %+v", scs)
		}
		seen[sc.Name] = true
		if err := sc.Faults.Validate(); err != nil {
			t.Fatalf("scenario %s invalid: %v", sc.Name, err)
		}
	}
}
