package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"rush/internal/faults"
	"rush/internal/workload"
)

// marshal renders a comparison (or any result container) to canonical
// bytes so runs can be diffed byte-for-byte.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunExperimentParallelDeterminism pins the tentpole guarantee: the
// ADAA experiment — with every fault class injected, so the comparison
// carries live fault and breaker counters — produces byte-identical
// results at workers=1 and workers=8, and ReportFaults renders them.
func TestRunExperimentParallelDeterminism(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	pred := predictor(t)
	cfg := Config{Faults: faults.Config{
		NodeMTBF: 4 * 3600, NodeMTTR: 900,
		TelemetryLoss: 0.15, FreezeProb: 0.05,
		ModelOutage: 0.25,
	}}

	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := RunExperiment(spec, pred, 3, 7000, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := cfg
	parCfg.Workers = 8
	par, err := RunExperiment(spec, pred, 3, 7000, parCfg)
	if err != nil {
		t.Fatal(err)
	}

	sb, pb := marshal(t, serial), marshal(t, par)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("workers=1 and workers=8 diverge:\nserial: %.400s\nparallel: %.400s", sb, pb)
	}

	// The diff above must have had something real to compare: faults and
	// gate degradation actually fired.
	var kills, degraded int
	for i := range serial.Baseline {
		kills += serial.Baseline[i].JobKills + serial.RUSH[i].JobKills
		degraded += serial.RUSH[i].GateDegraded
	}
	if kills == 0 {
		t.Fatal("fault injection produced no job kills; the determinism check is vacuous")
	}
	if degraded == 0 {
		t.Fatal("model outage never degraded the gate; the determinism check is vacuous")
	}
	if out := renderText(t, func(w io.Writer) error { return ReportFaults(w, serial) }); out == "" {
		t.Fatal("fault report is empty")
	}
}

func TestRunExperimentRejectsNonPositiveTrials(t *testing.T) {
	spec, _ := workload.SpecByName("ADAA")
	for _, trials := range []int{0, -3} {
		cmp, err := RunExperiment(spec, nil, trials, 1, Config{})
		if err == nil || !strings.Contains(err.Error(), "trials must be positive") {
			t.Fatalf("trials=%d: err = %v, want validation error", trials, err)
		}
		if cmp != nil {
			t.Fatalf("trials=%d: got a comparison alongside the error", trials)
		}
	}
}
