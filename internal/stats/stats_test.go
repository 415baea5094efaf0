package stats

import (
	"math"
	"testing"
	"testing/quick"
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

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{3.4, 1.1, 9.9, -2, 5, 5, 0.5}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if !almostEq(o.Mean(), Mean(xs), 1e-10) {
		t.Fatalf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !almostEq(o.Std(), Std(xs), 1e-10) {
		t.Fatalf("online std %v vs batch %v", o.Std(), Std(xs))
	}
	if o.Min() != -2 || o.Max() != 9.9 || o.N() != len(xs) {
		t.Fatalf("online min/max/n wrong: %v %v %v", o.Min(), o.Max(), o.N())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) || !math.IsNaN(o.Std()) || !math.IsNaN(o.Min()) || !math.IsNaN(o.Max()) {
		t.Fatal("empty accumulator should return NaN")
	}
}

// Property: for any non-empty input, Min <= Mean <= Max, and the online
// accumulator agrees with the batch computation.
func TestOnlineProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var o Online
		for i, r := range raw {
			xs[i] = float64(r) / 7.0
			o.Add(xs[i])
		}
		mean := Mean(xs)
		if !(Min(xs) <= mean+1e-9 && mean <= Max(xs)+1e-9) {
			return false
		}
		return almostEq(o.Mean(), mean, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
