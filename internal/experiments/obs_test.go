package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rush/internal/obs"
	"rush/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// shortSpec is a trimmed ADAA used by the trace tests: same machine,
// same applications, far fewer jobs.
func shortSpec() workload.Spec {
	spec, _ := workload.SpecByName("ADAA")
	spec.NumJobs = 12
	return spec
}

// TestTracingDoesNotPerturbScheduling pins the observer-neutrality
// contract: running the identical trial with tracing and metrics on must
// change nothing except the Trace/Metrics payloads themselves.
func TestTracingDoesNotPerturbScheduling(t *testing.T) {
	pred := predictor(t)
	spec := shortSpec()
	plain, err := RunTrial(spec, RUSH, pred, 321, Config{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunTrial(spec, RUSH, pred, 321, Config{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) == 0 || traced.Metrics == nil {
		t.Fatal("traced trial recorded no trace/metrics")
	}
	traced.Trace, traced.Metrics = nil, nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(traced)
	if !bytes.Equal(a, b) {
		t.Fatalf("tracing perturbed the trial:\nplain:  %s\ntraced: %s", a, b)
	}
}

// pairedTrace concatenates an experiment's per-trial traces in paired
// order (baseline trial i, then its RUSH twin), the same order rush-sim
// -trace writes.
func pairedTrace(cmp *Comparison) []byte {
	var buf bytes.Buffer
	for i := range cmp.Baseline {
		buf.Write(cmp.Baseline[i].Trace)
		buf.Write(cmp.RUSH[i].Trace)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossWorkers requires the full JSONL event
// stream to be byte-identical at -workers 1 and 8, and every line to be
// valid JSON with gate decisions carrying their provenance.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	pred := predictor(t)
	spec := shortSpec()
	cfg := Config{Trace: true}
	cfg.Workers = 1
	serial, err := RunExperiment(spec, pred, 2, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	fanned, err := RunExperiment(spec, pred, 2, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pairedTrace(serial), pairedTrace(fanned)
	if !bytes.Equal(a, b) {
		t.Fatalf("trace differs between workers=1 (%d bytes) and workers=8 (%d bytes)", len(a), len(b))
	}

	gates := 0
	for i, line := range bytes.Split(bytes.TrimSpace(a), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i, err, line)
		}
		if ev["kind"] == string(obs.KindGate) {
			gates++
			if _, ok := ev["decision"]; !ok {
				t.Fatalf("gate event without decision: %s", line)
			}
			if _, ok := ev["class"]; ev["decision"] == string(obs.DecisionVeto) && !ok {
				t.Fatalf("veto event without predicted class: %s", line)
			}
		}
	}
	if gates == 0 {
		t.Fatal("no gate-decision events in the RUSH trace")
	}
}

// TestTraceGolden diffs a short baseline-policy trace against a checked-
// in golden file, so any change to event encoding or scheduling order is
// a conscious one (refresh with `go test ./internal/experiments -run
// TestTraceGolden -update`).
func TestTraceGolden(t *testing.T) {
	tr, err := RunTrial(shortSpec(), Baseline, nil, 777, Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_short_baseline.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tr.Trace, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Trace, want) {
		t.Fatalf("trace deviates from golden %s (%d vs %d bytes); run with -update if intended",
			path, len(tr.Trace), len(want))
	}
}

// TestMetricsSnapshotMergedIntoReport checks that per-trial registries
// survive into the Comparison and render through ReportMetrics.
func TestMetricsSnapshotMergedIntoReport(t *testing.T) {
	pred := predictor(t)
	cmp, err := RunExperiment(shortSpec(), pred, 1, 55, Config{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range append(append([]*Trial{}, cmp.Baseline...), cmp.RUSH...) {
		if tr.Metrics == nil {
			t.Fatal("trial missing metrics snapshot")
		}
		finished := -1.0
		for _, c := range tr.Metrics.Counters {
			if c.Name == "sched_jobs_finished_total" {
				finished = c.Value
			}
		}
		if finished != float64(len(tr.Jobs)) {
			t.Fatalf("sched_jobs_finished_total = %v, want %d", finished, len(tr.Jobs))
		}
	}
	out := renderText(t, func(w io.Writer) error { return ReportMetrics(w, cmp) })
	for _, want := range []string{"sched_jobs_finished_total", "gate_evaluations_total", "sched_wait_seconds"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("metrics report missing %q:\n%s", want, out)
		}
	}
}
