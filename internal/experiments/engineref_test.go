package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"rush/internal/cluster"
)

// TestEngineReferenceMatchesFastPath pins the sharded contention engine
// against its oracle end to end: routing every contention change
// through the machine's full-recompute executor
// (machine.Machine.DisableFastPath, selected by the unexported
// Config.engineReference) instead of the dirty-lane fast path must
// change nothing observable — not a job record,
// not a trace byte — through the full experiment stack (noise, gates,
// breaker, fault injection) across the whole fault matrix.
func TestEngineReferenceMatchesFastPath(t *testing.T) {
	pred := predictor(t)
	spec := shortSpec()
	matrix := func(ref bool) []FaultRow {
		t.Helper()
		rows, err := FaultMatrix(spec, pred, nil, 3, 900, Config{Trace: true, engineReference: ref})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	fast, slow := matrix(false), matrix(true)
	if !reflect.DeepEqual(fast, slow) {
		for i := range fast {
			if !reflect.DeepEqual(fast[i], slow[i]) {
				t.Fatalf("fault scenario %q diverges between sharded engine and reference executor", fast[i].Scenario.Name)
			}
		}
		t.Fatal("fault matrix diverges between sharded engine and reference executor")
	}
}

// TestEngineDifferentialAcrossTopologies pins the sharded engine against
// the full-recompute reference on every topology class — the paper's
// single 512-node pod, the full 2,988-node Quartz machine, and the
// synthetic 4,096-node 8-pod shape — across five seeds.
func TestEngineDifferentialAcrossTopologies(t *testing.T) {
	spec := shortSpec()
	topos := []cluster.Topology{
		cluster.Pod512(),
		cluster.Quartz(),
		cluster.Synthetic(4096, 512),
	}
	for _, topo := range topos {
		for _, seed := range []int64{101, 202, 303, 404, 505} {
			run := func(engineRef bool) *Trial {
				t.Helper()
				tr, err := RunTrial(spec, Baseline, nil, seed, Config{
					Topo: topo, Trace: true, engineReference: engineRef,
				})
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			fast := run(false)
			ref := run(true)
			if !bytes.Equal(fast.Trace, ref.Trace) {
				t.Fatalf("topo %v seed %d: trace diverges between sharded engine and reference", topo, seed)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("topo %v seed %d: trial diverges between sharded engine and reference", topo, seed)
			}
		}
	}
}
