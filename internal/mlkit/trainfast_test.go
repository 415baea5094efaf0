package mlkit

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rush/internal/sim"
)

// quantizedDataset synthesizes a classification problem whose feature
// values are rounded onto a coarse grid, so every column is full of
// duplicate values — the adversarial case for presorted-column
// equivalence (tie handling) — with a sprinkling of NaNs for the
// missing-value paths.
func quantizedDataset(n, nf int, seed int64) ([][]float64, []int) {
	rng := sim.NewSource(seed).Derive("quantized-test")
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, nf)
		var s float64
		for j := range row {
			row[j] = math.Round(rng.Normal(0, 1)*2) / 2
			s += row[j]
		}
		if rng.Bool(0.05) {
			row[rng.Intn(nf)] = math.NaN()
		}
		x[i] = row
		switch {
		case s > 1:
			y[i] = 2
		case s > -1:
			y[i] = 1
		default:
			y[i] = 0
		}
	}
	return x, y
}

// viaReference selects the per-node-sort oracle builder (treeBuilder)
// for m's next Fit when on is set — the one place the unexported
// reference hooks are written.
func viaReference(c Classifier, on bool) Classifier {
	switch m := c.(type) {
	case *Tree:
		m.cfg.reference = on
	case *Forest:
		m.reference = on
	case *AdaBoost:
		m.reference = on
	}
	return c
}

// fastPathModels builds every tree-family model in both fast and
// reference configurations.
func fastPathModels(seed int64, workers int, reference bool) []struct {
	name string
	c    Classifier
} {
	models := []struct {
		name string
		c    Classifier
	}{
		{"Tree", NewTree(TreeConfig{MaxDepth: 8, Seed: seed})},
		{"TreeSqrt", NewTree(TreeConfig{MaxDepth: 8, MaxFeatures: SqrtFeatures, Seed: seed})},
		{"ExtraTree", NewTree(TreeConfig{MaxDepth: 8, MaxFeatures: SqrtFeatures, RandomThreshold: true, Seed: seed})},
		{"RandomForest", NewRandomForest(ForestConfig{Trees: 12, MaxDepth: 7, Seed: seed, Workers: workers})},
		{"ExtraTrees", NewExtraTrees(ForestConfig{Trees: 12, MaxDepth: 7, Seed: seed, Workers: workers})},
		{"AdaBoostStumps", NewAdaBoost(AdaBoostConfig{Rounds: 15, Seed: seed, Workers: workers})},
		{"AdaBoostTrees", NewAdaBoost(AdaBoostConfig{Rounds: 8, Depth: 2, MaxFeatures: 6, Seed: seed, Workers: workers})},
	}
	for _, m := range models {
		viaReference(m.c, reference)
	}
	return models
}

// TestFastPathBitIdentical is the tentpole differential: on NaN-bearing
// and duplicate-heavy data, across seeds, worker counts, and both split
// modes, the presorted-column fast path and the per-node-sorting
// reference path must serialize every model to identical bytes.
func TestFastPathBitIdentical(t *testing.T) {
	datasets := []struct {
		name string
		mk   func(seed int64) ([][]float64, []int)
	}{
		{"gaussian", func(seed int64) ([][]float64, []int) { return workersDataset(300, 12, seed) }},
		{"quantized", func(seed int64) ([][]float64, []int) { return quantizedDataset(300, 12, seed) }},
	}
	for _, ds := range datasets {
		for seed := int64(1); seed <= 5; seed++ {
			x, y := ds.mk(seed)
			ref := fastPathModels(seed, 1, true)
			fast1 := fastPathModels(seed, 1, false)
			fast8 := fastPathModels(seed, 8, false)
			for i := range ref {
				want := fitSerialized(t, ref[i].c, x, y)
				got1 := fitSerialized(t, fast1[i].c, x, y)
				got8 := fitSerialized(t, fast8[i].c, x, y)
				if !bytes.Equal(want, got1) {
					t.Errorf("%s seed %d %s: fast path (workers=1) differs from reference", ds.name, seed, ref[i].name)
				}
				if !bytes.Equal(want, got8) {
					t.Errorf("%s seed %d %s: fast path (workers=8) differs from reference", ds.name, seed, ref[i].name)
				}
			}
		}
	}
}

// TestFastPathWeightedBitIdentical pins the hardest accumulation case:
// non-uniform sample weights on duplicate-heavy data, where summation
// order reaches the float bits. The canonical column order makes both
// paths sum in the same sequence.
func TestFastPathWeightedBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		x, y := quantizedDataset(250, 10, seed)
		w := make([]float64, len(y))
		wrng := sim.NewSource(seed).Derive("weights")
		for i := range w {
			w[i] = wrng.Uniform(0.1, 2.0)
		}
		for _, maxFeat := range []int{0, SqrtFeatures} {
			ref := NewTree(TreeConfig{MaxDepth: 8, MaxFeatures: maxFeat, Seed: seed})
			ref.cfg.reference = true
			fast := NewTree(TreeConfig{MaxDepth: 8, MaxFeatures: maxFeat, Seed: seed})
			if err := ref.FitWeighted(x, y, w); err != nil {
				t.Fatal(err)
			}
			if err := fast.FitWeighted(x, y, w); err != nil {
				t.Fatal(err)
			}
			want, err := SaveModel(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SaveModel(fast)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("seed %d maxFeatures %d: weighted fast fit differs from reference", seed, maxFeat)
			}
		}
	}
}

// TestRFEUnchangedByFastPath pins that feature elimination — selection,
// score, and full trajectory — is identical whichever builder trains the
// ranker.
func TestRFEUnchangedByFastPath(t *testing.T) {
	x, y := synthBinary(160, 5, 15, 0.4, 7)
	run := func(reference bool) RFEResult {
		res, err := RFE(func() Classifier {
			return viaReference(NewExtraTrees(ForestConfig{Trees: 10, MaxDepth: 6, Seed: 3}), reference)
		}, x, y, RFEConfig{Seed: 11, MinFeatures: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(true)
	fast := run(false)
	if !reflect.DeepEqual(ref, fast) {
		t.Errorf("RFE results differ between fast and reference paths:\nref:  %+v\nfast: %+v", ref, fast)
	}
}

// TestFitAllocBudget is the allocs-per-node regression guard for the
// fast builder: a Fit may allocate its fixed working set and the stored
// nodes, but nothing per node beyond each stored node itself (leaf
// probability vectors, slice growth). One allocation per node plus a
// fixed slack bounds that; the reference path allocates several slices
// per candidate per node and fails this budget by an order of magnitude.
func TestFitAllocBudget(t *testing.T) {
	x, y := workersDataset(500, 16, 3)
	tree := NewTree(TreeConfig{MaxDepth: 10, MaxFeatures: SqrtFeatures, Seed: 9})
	allocs := testing.AllocsPerRun(3, func() {
		if err := tree.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	})
	nodes := tree.NumNodes()
	if nodes == 0 {
		t.Fatal("fit grew no nodes")
	}
	budget := float64(nodes) + 96
	if allocs > budget {
		t.Errorf("Tree.Fit allocated %.0f times for %d nodes; budget %.0f (≤1 alloc/node + fixed slack)", allocs, nodes, budget)
	}
}

// TestPermIntoMatchesPerm pins the RNG contract the fast path relies on:
// PermInto must draw exactly the sequence Perm draws and leave the
// stream in the same state.
func TestPermIntoMatchesPerm(t *testing.T) {
	a := sim.NewSource(42)
	b := sim.NewSource(42)
	buf := make([]int, 17)
	for round := 0; round < 5; round++ {
		want := a.Perm(len(buf))
		b.PermInto(buf)
		if !reflect.DeepEqual(want, buf) {
			t.Fatalf("round %d: PermInto %v != Perm %v", round, buf, want)
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("PermInto left the stream in a different state than Perm")
	}
}
