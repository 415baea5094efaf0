package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", m)
	}
	// Sample std of this classic set is sqrt(32/7).
	if s := Std(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("std = %v", s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) || !math.IsNaN(Std([]float64{1})) {
		t.Fatal("empty/degenerate inputs should give NaN")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) || !math.IsNaN(Median(nil)) {
		t.Fatal("empty min/max/median should give NaN")
	}
	if z := ZScore(5, 5, 0); z != 0 {
		t.Fatalf("zero-std zscore should be 0, got %v", z)
	}
	if z := ZScore(5, 5, math.NaN()); z != 0 {
		t.Fatalf("NaN-std zscore should be 0, got %v", z)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range q should panic")
		}
	}()
	Quantile(xs, 1.5)
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestZScore(t *testing.T) {
	if z := ZScore(12, 10, 2); !almostEq(z, 1, 1e-12) {
		t.Fatalf("zscore = %v, want 1", z)
	}
	if z := ZScore(4, 10, 2); !almostEq(z, -3, 1e-12) {
		t.Fatalf("zscore = %v, want -3", z)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Median != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatalf("empty summary wrong: %+v", empty)
	}
}
