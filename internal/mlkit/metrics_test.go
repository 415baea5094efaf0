package mlkit

import (
	"math"
	"testing"
)

func TestConfusionBasics(t *testing.T) {
	yTrue := []int{0, 0, 1, 1, 1, 0}
	yPred := []int{0, 1, 1, 0, 1, 0}
	c, err := NewConfusion(yTrue, yPred)
	if err != nil {
		t.Fatal(err)
	}
	if c.Counts[0][0] != 2 || c.Counts[0][1] != 1 || c.Counts[1][0] != 1 || c.Counts[1][1] != 2 {
		t.Fatalf("counts wrong: %v", c.Counts)
	}
	if acc := c.Accuracy(); math.Abs(acc-4.0/6.0) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
	p, r := c.PrecisionRecall(1)
	if math.Abs(p-2.0/3.0) > 1e-12 || math.Abs(r-2.0/3.0) > 1e-12 {
		t.Fatalf("p=%v r=%v", p, r)
	}
	if f1 := c.F1(1); math.Abs(f1-2.0/3.0) > 1e-12 {
		t.Fatalf("f1 = %v", f1)
	}
}

func TestF1MatchesPaperFormula(t *testing.T) {
	// F1 = tp / (tp + (fp+fn)/2), the form printed in the paper.
	yTrue := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}
	yPred := []int{1, 1, 1, 0, 1, 1, 0, 0, 0, 0}
	tp, fp, fn := 3.0, 2.0, 1.0
	want := tp / (tp + (fp+fn)/2)
	if got := F1Score(yTrue, yPred, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", got, want)
	}
}

func TestF1DegenerateCases(t *testing.T) {
	// No positive predictions and no positive truth: F1 = 0 by convention.
	if got := F1Score([]int{0, 0}, []int{0, 0}, 1); got != 0 {
		t.Fatalf("degenerate F1 = %v", got)
	}
	// Perfect prediction.
	if got := F1Score([]int{1, 0, 1}, []int{1, 0, 1}, 1); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
	// The always-negative classifier on imbalanced data: high accuracy,
	// zero F1 — the exact failure mode the paper cites for accuracy.
	yTrue := make([]int, 100)
	yPred := make([]int, 100)
	for i := 90; i < 100; i++ {
		yTrue[i] = 1
	}
	if acc := Accuracy(yTrue, yPred); acc != 0.9 {
		t.Fatalf("acc = %v", acc)
	}
	if f1 := F1Score(yTrue, yPred, 1); f1 != 0 {
		t.Fatalf("always-negative F1 = %v", f1)
	}
}

func TestConfusionErrors(t *testing.T) {
	if _, err := NewConfusion([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := NewConfusion([]int{-1}, []int{0}); err == nil {
		t.Fatal("negative label should error")
	}
}

func TestPrecisionRecallOutOfRangeClass(t *testing.T) {
	c, _ := NewConfusion([]int{0, 1}, []int{0, 1})
	if p, r := c.PrecisionRecall(5); p != 0 || r != 0 {
		t.Fatal("out-of-range class should yield zeros")
	}
}
