package experiments

import (
	"reflect"
	"testing"

	"rush/internal/sched"
)

// TestSchedReferenceMatchesFastPath pins the availability-timeline fast
// path against its oracle end to end: routing every scheduling pass
// through the reference scanner (sched.Scheduler.DisableFastPath,
// selected by the unexported Config.schedReference) must change nothing
// observable — not a job record, not a trace byte. The
// sched package's differential tests pin the two passes against each
// other at the event level; this test pins them through the full
// experiment stack (workload generation, gates, breaker, fault
// injection, parallel trial execution) across the whole fault matrix
// and across both non-default backfill modes, with ≥5 distinct seeds in
// play.
func TestSchedReferenceMatchesFastPath(t *testing.T) {
	pred := predictor(t)
	spec := shortSpec()

	// The full fault matrix (clean, node-churn, telemetry-loss,
	// model-outage, all-faults) under the default EASY backfill, with
	// traces recorded so the comparison is event-for-event.
	matrix := func(ref bool) []FaultRow {
		t.Helper()
		rows, err := FaultMatrix(spec, pred, nil, 3, 900, Config{Trace: true, schedReference: ref})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	fast, slow := matrix(false), matrix(true)
	if !reflect.DeepEqual(fast, slow) {
		for i := range fast {
			if !reflect.DeepEqual(fast[i], slow[i]) {
				t.Fatalf("fault scenario %q diverges between fast path and reference scheduler", fast[i].Scenario.Name)
			}
		}
		t.Fatal("fault matrix diverges between fast path and reference scheduler")
	}

	// The backfill ablations, paired baseline/RUSH, two more seeds each.
	for _, mode := range []sched.BackfillMode{sched.ConservativeBackfill, sched.NoBackfill} {
		cfg := Config{Backfill: mode, Trace: true}
		a, err := RunExperiment(spec, pred, 2, 1500, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.schedReference = true
		b, err := RunExperiment(spec, pred, 2, 1500, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("backfill mode %v diverges between fast path and reference scheduler", mode)
		}
	}
}
