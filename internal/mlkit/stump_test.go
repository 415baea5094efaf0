package mlkit

import (
	"hash/fnv"
	"math"
	"testing"

	"rush/internal/parallel"
	"rush/internal/sim"
)

// campaignShaped synthesizes a training set of the deployed campaign's
// shape: 2,100 rows of 282 features, 1,949 / 27 / 124 rows of classes
// 0 / 1 / 2. The first seven columns one-hot an application, the next
// thirteen are integer counters, and the rest are continuous, a few of
// them shifted by class and a few with missing values.
func campaignShaped(seed int64) ([][]float64, []int) {
	const n, nf, apps, counters = 2100, 282, 7, 13
	rng := sim.NewSource(seed).Derive("campaign-shaped")
	y := make([]int, n)
	for i := range y {
		switch {
		case i < 27:
			y[i] = 1
		case i < 27+124:
			y[i] = 2
		}
	}
	rng.Shuffle(n, func(i, j int) { y[i], y[j] = y[j], y[i] })
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, nf)
		row[rng.Intn(apps)] = 1
		shift := float64(y[i])
		for f := apps; f < apps+counters; f++ {
			row[f] = math.Round(rng.LogNormal(1+0.3*shift, 0.8))
		}
		for f := apps + counters; f < nf; f++ {
			mu := 0.0
			if f%9 == 0 {
				mu = 0.6 * shift
			}
			row[f] = rng.Normal(mu, 1)
			if f%31 == 0 && rng.Bool(0.01) {
				row[f] = math.NaN()
			}
		}
		x[i] = row
	}
	return x, y
}

// TestStumpModelPinnedOnCampaignShape fits the deployed configuration,
// 150 rounds of stump AdaBoost, on campaignShaped data and pins the
// FNV-1a hash of SaveModel's bytes. The hash was taken from the
// gather-and-rebuild scan that bestStumpReference preserves, so any
// change to the stump search that moves a model byte fails here.
func TestStumpModelPinnedOnCampaignShape(t *testing.T) {
	x, y := campaignShaped(42)
	m := NewAdaBoost(AdaBoostConfig{Rounds: 150})
	blob := fitSerialized(t, m, x, y)
	if m.Rounds() != 150 {
		t.Fatalf("fit stopped after %d rounds; the pin wants all 150", m.Rounds())
	}
	h := fnv.New64a()
	h.Write(blob)
	const want = 0x68815177b880324b
	if got := h.Sum64(); got != want {
		t.Fatalf("model hash %#016x, want %#016x", got, want)
	}
}

// stumpProblem is one stump search: a column-major matrix of n rows,
// class indices below k and sample weights.
type stumpProblem struct {
	colv []float64
	n, k int
	yi   []int
	w    []float64
}

// randomStumpProblem draws a problem whose columns mix the shapes the
// scan must get right: continuous values, coarse grids with long runs of
// equal values, constant columns, NaN tails, and exact copies of an
// earlier column (error ties across features). Dyadic weights make
// sums exact, so equal errors at different cuts are common too.
func randomStumpProblem(rng *sim.Source, k int) stumpProblem {
	n, nf := 2+rng.Intn(300), 1+rng.Intn(9)
	p := stumpProblem{colv: make([]float64, n*nf), n: n, k: k, yi: make([]int, n), w: make([]float64, n)}
	for i := range p.yi {
		p.yi[i] = rng.Intn(k)
		if rng.Bool(0.5) {
			p.yi[i] = 0 // one majority class, as in the campaign
		}
	}
	dyadic := rng.Bool(0.5)
	for i := range p.w {
		if dyadic {
			p.w[i] = float64(1+rng.Intn(4)) / 64
		} else {
			p.w[i] = rng.Uniform(0.1, 2)
		}
	}
	for f := 0; f < nf; f++ {
		col := p.colv[f*n : (f+1)*n]
		shape := rng.Intn(5)
		for i := range col {
			switch shape {
			case 0:
				col[i] = rng.Normal(float64(p.yi[i]), 1)
			case 1:
				col[i] = float64(rng.Intn(3))
			case 2:
				col[i] = 7
			case 3:
				col[i] = math.Round(rng.Normal(0, 2))
				if rng.Bool(0.3) {
					col[i] = math.NaN()
				}
			case 4:
				if f > 0 {
					col[i] = p.colv[(f-1)*n+i]
				} else {
					col[i] = rng.Float64()
				}
			}
		}
	}
	return p
}

// sameStump reports whether two searches chose the same stump with the
// same error, bit for bit (a NaN threshold equals itself).
func sameStump(a stump, ae float64, b stump, be float64) bool {
	return a.Feature == b.Feature && a.LeftClass == b.LeftClass && a.RightClass == b.RightClass &&
		a.DefaultLeft == b.DefaultLeft && math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		math.Float64bits(ae) == math.Float64bits(be)
}

// checkStumpRounds runs up to rounds boosting rounds on p, asking both
// bestStumpReference and stumpScan.bestStump (at one and at three
// workers) for each round's stump, then reweighting as SAMME does. It
// fails on the first round where the answers differ and returns how
// many rounds it compared.
func checkStumpRounds(t testing.TB, p stumpProblem, rounds int) int {
	t.Helper()
	nf := len(p.colv) / p.n
	cols := presortColumns(p.colv, nf, p.n, 1)
	scans := []*stumpScan{newStumpScan(cols, p.yi, p.k, 1), newStumpScan(cols, p.yi, p.k, 3)}
	w := append([]float64(nil), p.w...)
	for round := 0; round < rounds; round++ {
		want, wantErr := bestStumpReference(p.colv, p.n, p.yi, w, p.k, cols, 1)
		for _, sc := range scans {
			if got, gotErr := sc.bestStump(w); !sameStump(got, gotErr, want, wantErr) {
				t.Fatalf("round %d, workers %d: got %+v err %v, reference %+v err %v",
					round, sc.workers, got, gotErr, want, wantErr)
			}
		}
		if want.Feature < 0 || wantErr <= 1e-10 || wantErr >= 1-1/float64(p.k) {
			return round + 1
		}
		alpha := math.Log((1-wantErr)/wantErr) + math.Log(float64(p.k)-1)
		var sum float64
		for i := range w {
			sample := make([]float64, nf)
			for f := range sample {
				sample[f] = p.colv[f*p.n+i]
			}
			if want.predict(sample) != p.yi[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return rounds
}

// TestBestStumpMatchesReference differences the sequential scan against
// bestStumpReference over random problems for k = 2, 3 and 5, through
// several reweighting rounds each: the same stump, threshold bits and
// error bits, including the first-minimum choice among exact ties.
func TestBestStumpMatchesReference(t *testing.T) {
	rng := sim.NewSource(11).Derive("best-stump")
	for _, k := range []int{2, 3, 5} {
		var compared int
		for c := 0; c < 150; c++ {
			compared += checkStumpRounds(t, randomStumpProblem(rng, k), 6)
		}
		if compared < 300 {
			t.Fatalf("k=%d: only %d rounds compared; the cases stop boosting too early", k, compared)
		}
	}
}

// TestBestStumpTiesPickFirst pins the strict first-minimum rule on two
// hand-made ties: a column and its copy (the lower feature wins), and a
// column whose two cuts have the same error (the lower cut wins).
func TestBestStumpTiesPickFirst(t *testing.T) {
	p := stumpProblem{
		colv: []float64{1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6},
		n:    6, k: 2,
		yi: []int{0, 1, 0, 0, 1, 0},
		w:  []float64{1, 1, 1, 1, 1, 1},
	}
	cols := presortColumns(p.colv, 2, p.n, 1)
	st, e := newStumpScan(cols, p.yi, p.k, 2).bestStump(p.w)
	if st.Feature != 0 || st.Threshold != 1.5 || e != 2.0/6 {
		t.Fatalf("got %+v err %v; want feature 0, threshold 1.5 (first of the tied cuts), err 1/3", st, e)
	}
	checkStumpRounds(t, p, 4)
}

// FuzzBestStump differences the sequential scan against
// bestStumpReference on problems decoded from arbitrary bytes: the
// shape, then one byte per value (a coarse grid, 255 a NaN), per label
// and per weight.
func FuzzBestStump(f *testing.F) {
	f.Add([]byte{8, 2, 1, 0, 0, 1, 1, 2, 2, 3, 3, 255, 255})
	f.Add([]byte{30, 3, 0, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 200, 100, 3})
	f.Add([]byte{3, 0, 3, 4, 4, 4, 0, 1, 2, 16, 16, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n, nf, k := 1+int(next())%64, 1+int(next())%5, 2+int(next())%4
		p := stumpProblem{colv: make([]float64, n*nf), n: n, k: k, yi: make([]int, n), w: make([]float64, n)}
		for i := range p.colv {
			if b := next(); b == 255 {
				p.colv[i] = math.NaN()
			} else {
				p.colv[i] = float64(b % 16)
			}
		}
		for i := range p.yi {
			p.yi[i] = int(next()) % k
		}
		for i := range p.w {
			p.w[i] = float64(1+next()%32) / 32
		}
		checkStumpRounds(t, p, 3)
	})
}

// TestStumpFitAllocBudget holds a stump Fit's allocations to a constant
// per round, whatever the feature count: the class masses, candidate
// slots and sorted classes are allocated once per Fit. Doubling the
// rounds on 64 features may add at most perRound allocations per extra
// round (the worker pool's handful, the round's predict closure); the
// scan that allocated its class masses per feature per round added 64.
func TestStumpFitAllocBudget(t *testing.T) {
	const perRound = 12
	x, y := workersDataset(300, 64, 5)
	allocs := func(rounds int) float64 {
		m := NewAdaBoost(AdaBoostConfig{Rounds: rounds, Workers: 2})
		a := testing.AllocsPerRun(3, func() {
			if err := m.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		})
		if m.Rounds() != rounds {
			t.Fatalf("fit stopped after %d of %d rounds", m.Rounds(), rounds)
		}
		return a
	}
	a50, a100 := allocs(50), allocs(100)
	if extra := a100 - a50; extra > 50*perRound {
		t.Errorf("Fit allocated %.0f times at 50 rounds and %.0f at 100: %.1f per extra round, budget %d",
			a50, a100, extra/50, perRound)
	}
}

// bestStumpReference is the stump search as it was before the sequential
// scan, kept verbatim as the oracle for stumpScan.bestStump: per round
// and feature it allocates its class masses, gathers each cut's two
// values through the index, and rebuilds the stump on every
// improvement. It finds the weighted-error-minimizing stump across all
// features using the presorted column structure (colv column-major
// values, cols canonical per-feature order). Features scan concurrently
// (bounded by workers) and their candidates reduce in feature order
// with a strict less-than, so the winner — and therefore the fitted
// model — is the one a serial ascending scan would pick, at any worker
// count. It returns Feature == -1 when no feature has two distinct
// values.
func bestStumpReference(colv []float64, n int, yi []int, w []float64, k int, cols *sortedCols, workers int) (stump, float64) {
	var totalCounts []float64
	totalCounts = make([]float64, k)
	var totalW float64
	for i, wi := range w {
		totalCounts[yi[i]] += wi
		totalW += wi
	}

	// Per-feature candidates, slotted by feature index.
	type candidate struct {
		st  stump
		err float64
	}
	nf := len(colv) / n
	cands := make([]candidate, nf)
	err := parallel.Run(workers, nf, func(f int) error {
		idx := cols.col(f)
		vals := colv[f*n : (f+1)*n]
		fBest := candidate{st: stump{Feature: -1}, err: math.Inf(1)}
		leftCounts := make([]float64, k)
		var leftW float64
		for p := 0; p < len(idx)-1; p++ {
			s := idx[p]
			leftCounts[yi[s]] += w[s]
			leftW += w[s]
			v, next := vals[s], vals[idx[p+1]]
			if v == next {
				continue
			}
			// Error = total - (best left class mass) - (best right class mass).
			bl, br := 0, 0
			blw, brw := -1.0, -1.0
			for c := 0; c < k; c++ {
				if leftCounts[c] > blw {
					blw = leftCounts[c]
					bl = c
				}
				if r := totalCounts[c] - leftCounts[c]; r > brw {
					brw = r
					br = c
				}
			}
			e := totalW - blw - brw
			if e < fBest.err {
				fBest.err = e
				fBest.st = stump{
					Feature: f, Threshold: v + (next-v)/2,
					LeftClass: bl, RightClass: br,
					DefaultLeft: leftW >= totalW-leftW,
				}
			}
		}
		cands[f] = fBest
		return nil
	})
	if err != nil {
		// The scan tasks never return errors, so this can only be a
		// captured panic; re-raise it as the serial scan would have.
		panic(err)
	}

	best := stump{Feature: -1}
	bestErr := math.Inf(1)
	for _, c := range cands {
		if c.st.Feature >= 0 && c.err < bestErr {
			bestErr = c.err
			best = c.st
		}
	}
	if best.Feature < 0 {
		return best, 1
	}
	return best, bestErr / totalW
}
