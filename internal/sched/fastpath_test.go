package sched

import (
	"math"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// twinGates builds two machines from the same seed with identical trained
// models — one gate on the fast path, one forced through the reference
// path — so their decisions can be compared step for step.
func twinGates(t *testing.T, seed int64, allScope bool, probThreshold float64) (fast, ref *RUSH, bgF, bgR *machine.Background) {
	t.Helper()
	build := func() (*machine.Machine, *machine.Background) {
		eng := sim.New(seed)
		// Single pod, like the training machine, so the machine-wide
		// scope sees the same congestion the model learned from.
		m, err := machine.New(eng, cluster.Topology{Nodes: 64, PodSize: 64, CoresPerNode: 4})
		if err != nil {
			t.Fatal(err)
		}
		return m, m.NewBackground()
	}
	mF, bgF := build()
	mR, bgR := build()
	// One model, trained once, shared by both gates — exactly the shape
	// of parallel experiment trials sharing a trained predictor.
	model := trainedToyModel(t, gateMachine())
	fast = NewRUSH(mF, model)
	ref = NewRUSH(mR, model)
	ref.reference = true
	fast.AllNodesScope = allScope
	ref.AllNodesScope = allScope
	fast.ProbThreshold = probThreshold
	ref.ProbThreshold = probThreshold
	return fast, ref, bgF, bgR
}

// TestGateFastPathMatchesReference drives twin gates through identical
// load histories and checks every decision, feature vector, and counter
// agrees bit for bit between the fast path and the reference path —
// across both scopes and both decision rules.
func TestGateFastPathMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		allScope bool
		thresh   float64
	}{
		{"job-scope-label", false, 0},
		{"all-scope-label", true, 0},
		{"all-scope-proba", true, 0.35},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, ref, bgF, bgR := twinGates(t, 99, tc.allScope, tc.thresh)
			alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
			rng := sim.NewSource(7).Derive("drive")
			for step := 0; step < 25; step++ {
				load := rng.Uniform(0, 1.2)
				c := simnet.Contribution{PodNet: map[int]float64{0: load}, FS: rng.Uniform(0, 0.4)}
				bgF.Set(c)
				bgR.Set(c)
				dt := rng.Uniform(20, 300)
				fast.m.Eng.RunUntil(fast.m.Eng.Now() + dt)
				ref.m.Eng.RunUntil(ref.m.Eng.Now() + dt)

				ff := fast.LiveFeatures(alloc, apps.NetworkIntensive)
				rf := ref.LiveFeatures(alloc, apps.NetworkIntensive)
				if len(ff) != len(rf) {
					t.Fatalf("step %d: feature lengths %d vs %d", step, len(ff), len(rf))
				}
				for i := range ff {
					if math.Float64bits(ff[i]) != math.Float64bits(rf[i]) {
						t.Fatalf("step %d: feature %d = %v vs %v", step, i, ff[i], rf[i])
					}
				}
				j := &Job{ID: step, App: apps.Defaults()[1]}
				// LiveFeatures above consumed probe draws on both sides
				// equally; Allow consumes another identical set.
				fd := fast.Allow(j, alloc)
				j2 := &Job{ID: step, App: apps.Defaults()[1]}
				rd := ref.Allow(j2, alloc)
				if fd != rd {
					t.Fatalf("step %d: fast decision %v, reference %v", step, fd, rd)
				}
			}
			if fast.Evaluations != ref.Evaluations || fast.Vetoes != ref.Vetoes {
				t.Fatalf("counter drift: fast eval/veto %d/%d, ref %d/%d",
					fast.Evaluations, fast.Vetoes, ref.Evaluations, ref.Vetoes)
			}
			if fast.Vetoes == 0 || fast.Vetoes == fast.Evaluations {
				t.Fatalf("degenerate drive: %d vetoes of %d evaluations", fast.Vetoes, fast.Evaluations)
			}
		})
	}
}

// TestGateDecisionZeroAllocs pins the tentpole allocation contract: a
// steady-state gate decision — freshness check, window aggregation over
// the machine-wide scope, probes, feature assembly, ensemble inference —
// performs zero heap allocations.
func TestGateDecisionZeroAllocs(t *testing.T) {
	eng := sim.New(41)
	m, err := machine.New(eng, cluster.Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := trainedToyModel(t, gateMachine())
	gate := NewRUSH(m, model)
	gate.AllNodesScope = true
	if _, ok := gate.model.(mlkit.FastProbaPredictor); !ok {
		t.Fatal("toy model does not implement the fast path")
	}
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 0.8}, FS: 0.2})
	eng.RunUntil(900)
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
	j := &Job{ID: 1, App: apps.Defaults()[1]}

	if !gate.Allow(j, alloc) {
		j.Skips = 0 // warmup decision outcome irrelevant
	}
	allocs := testing.AllocsPerRun(100, func() {
		j.Skips = 0
		gate.Allow(j, alloc)
	})
	if allocs != 0 {
		t.Fatalf("gate decision allocated %.1f times per run; want 0", allocs)
	}
}
