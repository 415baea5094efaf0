package experiments

import (
	"bytes"
	"encoding/json"
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

// TestInteractingFaultsFailOpenOncePerDecision is the interacting-fault
// drill: the predictor is unreachable the whole run while telemetry is
// simultaneously lossy and freezing and nodes churn. Every gate decision
// must fail open exactly once (one gate event, one reason, no double
// counting between the model-down and stale-telemetry paths) and wait
// accounting must stay consistent across node-failure requeues.
func TestInteractingFaultsFailOpenOncePerDecision(t *testing.T) {
	pred := predictor(t)
	spec, _ := workload.SpecByName("ADAA")
	cfg := Config{
		Trace: true, Metrics: true,
		Faults: faults.Config{
			ModelOutage:   1,
			TelemetryLoss: 0.4,
			FreezeProb:    0.2,
			NodeMTBF:      20 * 3600,
			NodeMTTR:      600,
		},
	}
	tr, err := RunTrial(spec, RUSH, pred, 17, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.GateEvaluations != 0 {
		t.Fatalf("unreachable model evaluated %d times", tr.GateEvaluations)
	}
	if tr.GateDegraded == 0 {
		t.Fatal("full outage must degrade gate decisions")
	}

	// One gate event per decision; every non-override is a fail-open
	// with exactly one recognized reason.
	failOpens, overrides := 0, 0
	for _, line := range bytes.Split(tr.Trace, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Kind     string `json:"kind"`
			Decision string `json:"decision"`
			Reason   string `json:"reason"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Kind != "gate" {
			continue
		}
		switch ev.Decision {
		case "fail-open":
			failOpens++
			switch ev.Reason {
			case "breaker-open", "model-down", "stale-telemetry", "missing-features":
			default:
				t.Fatalf("fail-open with unrecognized reason %q", ev.Reason)
			}
		case "override":
			overrides++
		default:
			t.Fatalf("gate decision %q with the model unreachable", ev.Decision)
		}
	}
	if failOpens != tr.GateDegraded {
		t.Fatalf("trace has %d fail-open events, counter says %d", failOpens, tr.GateDegraded)
	}
	if overrides != tr.ThresholdOverrides {
		t.Fatalf("trace has %d overrides, counter says %d", overrides, tr.ThresholdOverrides)
	}

	// The per-reason metrics must partition the degraded total exactly.
	var reasonSum, degradedMetric float64
	for _, mv := range tr.Metrics.Counters {
		switch mv.Name {
		case "gate_fail_open_breaker_open_total", "gate_fail_open_model_down_total",
			"gate_fail_open_stale_telemetry_total", "gate_fail_open_missing_features_total":
			reasonSum += mv.Value
		case "gate_degraded_total":
			degradedMetric = mv.Value
		}
	}
	if reasonSum != float64(tr.GateDegraded) || degradedMetric != float64(tr.GateDegraded) {
		t.Fatalf("per-reason fail-opens sum to %v, degraded metric %v, counter %d",
			reasonSum, degradedMetric, tr.GateDegraded)
	}

	// Wait accounting across requeues: a job's recorded wait can never
	// exceed queue-visible time before its final start, matches it
	// exactly for never-killed jobs, and every record stays internally
	// ordered even after kills and retries.
	const eps = 1e-6
	requeued := 0
	for _, j := range tr.Jobs {
		if j.Failed {
			continue
		}
		if j.Wait < -eps || j.Start < j.Submit-eps || j.End <= j.Start {
			t.Fatalf("job %d inconsistent after faults: %+v", j.ID, j)
		}
		if j.Wait > j.Start-j.Submit+eps {
			t.Fatalf("job %d wait %v exceeds submit-to-start span %v", j.ID, j.Wait, j.Start-j.Submit)
		}
		if j.Retries == 0 {
			if d := j.Wait - (j.Start - j.Submit); d > eps || d < -eps {
				t.Fatalf("clean job %d wait %v != start-submit %v", j.ID, j.Wait, j.Start-j.Submit)
			}
		} else {
			requeued++
		}
	}
	if tr.JobKills > 0 && requeued == 0 && tr.FailedJobs == 0 {
		t.Fatal("kills occurred but no job records a retry or failure")
	}
}
