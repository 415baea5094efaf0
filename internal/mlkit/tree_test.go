package mlkit

import (
	"testing"
	"testing/quick"
)

func TestTreeLearnsLinearBoundary(t *testing.T) {
	x, y := synthBinary(400, 3, 3, 0.3, 1)
	xtr, ytr, xte, yte := holdout(x, y)
	tree := NewTree(TreeConfig{MaxDepth: 6})
	if err := tree.Fit(xtr, ytr); err != nil {
		t.Fatal(err)
	}
	pred := PredictBatch(tree, xte)
	if f1 := F1Score(yte, pred, 1); f1 < 0.9 {
		t.Fatalf("tree F1 on separable data = %v, want >= 0.9", f1)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	// Greedy CART gets no gain from the ideal first XOR cut, so it needs
	// a few extra levels to recover from near-useless early splits.
	x, y := synthXOR(400, 2)
	xtr, ytr, xte, yte := holdout(x, y)
	tree := NewTree(TreeConfig{MaxDepth: 7})
	if err := tree.Fit(xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(yte, PredictBatch(tree, xte)); acc < 0.93 {
		t.Fatalf("tree accuracy on XOR = %v, want >= 0.93", acc)
	}
}

func TestTreeThreeClass(t *testing.T) {
	x, y := synthThreeClass(600, 2, 3)
	xtr, ytr, xte, yte := holdout(x, y)
	tree := NewTree(TreeConfig{MaxDepth: 8})
	if err := tree.Fit(xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(yte, PredictBatch(tree, xte)); acc < 0.9 {
		t.Fatalf("3-class accuracy = %v", acc)
	}
	if got := tree.Classes(); len(got) != 3 {
		t.Fatalf("classes = %v", got)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	x, y := synthBinary(300, 3, 1, 0.4, 4)
	tree := NewTree(TreeConfig{MaxDepth: 3})
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Fatalf("depth = %d, want <= 3", d)
	}
}

func TestTreePureNodeBecomesLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{0, 0, 0, 0}
	tree := NewTree(TreeConfig{})
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(tree.nodes) != 1 {
		t.Fatalf("pure data should produce a single leaf, got %d nodes", len(tree.nodes))
	}
	if tree.Predict([]float64{2.5}) != 0 {
		t.Fatal("pure-class tree must predict that class")
	}
}

func TestTreeImportancesFavorInformative(t *testing.T) {
	x, y := synthBinary(500, 2, 4, 0.3, 5)
	tree := NewTree(TreeConfig{MaxDepth: 6})
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp := tree.Importances()
	var info, noise float64
	for f := 0; f < 2; f++ {
		info += imp[f]
	}
	for f := 2; f < 6; f++ {
		noise += imp[f]
	}
	if info <= noise {
		t.Fatalf("informative importance %v should exceed noise importance %v", info, noise)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("importances should normalize to 1, got %v", sum)
	}
}

func TestTreeWeightedFitShiftsBoundary(t *testing.T) {
	// Two overlapping points; weighting one class heavily should make
	// the tree predict it in the contested region.
	x := [][]float64{{0.4}, {0.6}, {0.5}, {0.5}}
	y := []int{0, 1, 0, 1}
	w := []float64{1, 1, 10, 0.1}
	tree := NewTree(TreeConfig{MaxDepth: 2, MinLeaf: 1})
	if err := tree.fitWeightedCtx(x, y, w, nil); err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0.5}); got != 0 {
		t.Fatalf("heavily weighted class should win the contested region, got %d", got)
	}
}

func TestTreeRandomThresholdStillLearns(t *testing.T) {
	x, y := synthBinary(500, 3, 2, 0.3, 6)
	xtr, ytr, xte, yte := holdout(x, y)
	tree := NewTree(TreeConfig{MaxDepth: 10, RandomThreshold: true, Seed: 3})
	if err := tree.Fit(xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if f1 := F1Score(yte, PredictBatch(tree, xte), 1); f1 < 0.85 {
		t.Fatalf("extra-tree F1 = %v", f1)
	}
}

func TestTreeErrorsOnBadInput(t *testing.T) {
	tree := NewTree(TreeConfig{})
	if err := tree.Fit(nil, nil); err == nil {
		t.Fatal("empty fit should error")
	}
	if err := tree.Fit([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Fatal("ragged matrix should error")
	}
	if err := tree.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("mismatched labels should error")
	}
	if err := tree.Fit([][]float64{{1}}, []int{-1}); err == nil {
		t.Fatal("negative label should error")
	}
	if err := tree.fitWeightedCtx([][]float64{{1}, {2}}, []int{0, 1}, []float64{1}, nil); err == nil {
		t.Fatal("weight length mismatch should error")
	}
}

func TestTreePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("predict before fit should panic")
		}
	}()
	NewTree(TreeConfig{}).Predict([]float64{1})
}

func TestTreeDeterministicGivenSeed(t *testing.T) {
	x, y := synthBinary(300, 3, 3, 0.3, 7)
	fit := func() []int {
		tree := NewTree(TreeConfig{MaxDepth: 6, MaxFeatures: 2, Seed: 9})
		if err := tree.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return PredictBatch(tree, x)
	}
	a, b := fit(), b2(fit)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tree not deterministic under fixed seed")
		}
	}
}

func b2(f func() []int) []int { return f() }

// Property: a fitted tree always predicts one of its training classes.
func TestTreePredictsTrainingClasses(t *testing.T) {
	x, y := synthThreeClass(200, 1, 8)
	tree := NewTree(TreeConfig{MaxDepth: 5})
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	valid := map[int]bool{0: true, 1: true, 2: true}
	f := func(a, b, c float64) bool {
		return valid[tree.Predict([]float64{a, b, c})]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
