package mlkit

import (
	"math"
	"slices"
	"sync"

	"rush/internal/parallel"
)

// This file is the shared presorted-column structure behind the training
// fast path: every tree-family Fit sorts each feature column ONCE, then
// grows its model by stably partitioning the presorted index lists at
// each split, instead of re-sorting the node's samples for every
// candidate feature at every node (see trainfast.go). AdaBoost's stump
// boosting has always presorted once per Fit; it now uses this same
// structure, so the repository has exactly one presort implementation.
//
// The canonical column order — ascending by value, NaN last, ties broken
// by row index — is deliberately shared with the reference per-node sort
// in tree.go. Identical order means identical floating-point
// accumulation sequences for every split statistic, which is what makes
// the fast and reference paths grow bit-identical trees even under
// non-uniform sample weights, where summation order reaches the bits.

// colLess is the canonical training order within one feature column:
// ascending by value with NaN sorted last, ties broken by row index. It
// is a strict total order (rows are distinct), so any comparison sort
// produces exactly one permutation.
func colLess(va, vb float64, a, b int32) bool {
	switch {
	case math.IsNaN(va):
		if math.IsNaN(vb) {
			return a < b
		}
		return false
	case math.IsNaN(vb):
		return true
	case va != vb:
		return va < vb
	default:
		return a < b
	}
}

// columnMajor copies the row-major sample matrix into one contiguous
// column-major slice: colv[f*n+row] == x[row][f]. Column scans — the
// training hot path — then walk one cache-friendly array instead of
// chasing a row pointer per sample.
func columnMajor(x [][]float64, nf int) []float64 {
	n := len(x)
	colv := make([]float64, nf*n)
	for i, row := range x {
		for f, v := range row {
			colv[f*n+i] = v
		}
	}
	return colv
}

// sortedCols holds every feature's row indices in canonical column
// order, column-major in one backing slice, plus the feature values in
// that same order (val[i] == colv[f*n+idx[i]]): the split scan walks
// values sequentially instead of gathering through the index. It is
// derived, read-only state: ensemble fits build it once and share it
// across tree workers.
type sortedCols struct {
	n   int
	idx []int32
	val []float64
}

// col returns feature f's rows in canonical order.
func (c *sortedCols) col(f int) []int32 { return c.idx[f*c.n : (f+1)*c.n] }

// presortColumns sorts every feature column of the column-major matrix
// once, fanning the independent per-feature sorts across the pool.
// Results slot by feature index, so any worker count yields the same
// structure. colLess is a strict total order, so the choice of sort
// algorithm cannot affect the result — slices.SortFunc (unstable
// pdqsort, monomorphized on int32) necessarily produces the one sorted
// permutation, at roughly half the cost of an interface-based sort.
func presortColumns(colv []float64, nf, n, workers int) *sortedCols {
	c := &sortedCols{n: n, idx: make([]int32, nf*n), val: make([]float64, nf*n)}
	if err := parallel.Run(workers, nf, func(f int) error {
		col := c.idx[f*n : (f+1)*n]
		for i := range col {
			col[i] = int32(i)
		}
		vals := colv[f*n : (f+1)*n]
		slices.SortFunc(col, func(a, b int32) int {
			if colLess(vals[a], vals[b], a, b) {
				return -1
			}
			return 1
		})
		sv := c.val[f*n : (f+1)*n]
		for i, s := range col {
			sv[i] = vals[s]
		}
		return nil
	}); err != nil {
		// The sort tasks never return errors, so this can only be a
		// captured panic; re-raise it as a serial loop would have.
		panic(err)
	}
	return c
}

// trainCtx carries shared precomputed column structures from an ensemble
// Fit into one tree's fast build, so bagged trees do not each pay a full
// presort. cols is nil in random-threshold (Extra Trees) mode, which
// never consults sorted order. owned marks a context built for exactly
// one tree (a bootstrap derivation): the builder may then partition
// cols.idx in place instead of copying it first. bufs, when non-nil, is
// the pooled storage backing colv/cols; release returns it for reuse by
// the next tree once the fit no longer references the context.
type trainCtx struct {
	colv  []float64
	cols  *sortedCols
	owned bool
	bufs  *bootBufs
}

// release returns the context's pooled buffers. Callers must not touch
// the context (or anything derived from its slices) afterwards.
func (tc *trainCtx) release() {
	if tc.bufs != nil {
		bootPool.Put(tc.bufs)
		tc.bufs = nil
	}
}

// bootBufs is the per-tree scratch a context derivation fills: derived
// column values and sorted indices plus integer bucket/position arrays.
// One bootstrap tree uses ~nf×n×12 bytes here; pooling them across the
// trees of a forest (and the rounds of a boosting fit) removes the
// dominant allocation cost of an ensemble fast-path fit. Each grab
// method sizes one buffer; stale contents never leak because every
// buffer is either fully overwritten or explicitly reset by its user.
type bootBufs struct {
	colv  []float64
	idx   []int32
	sval  []float64
	cnt   []int32
	slot  []int32
	items []int32
}

var bootPool = sync.Pool{New: func() any { return new(bootBufs) }}

func (b *bootBufs) grabColv(sz int) []float64 {
	if cap(b.colv) < sz {
		b.colv = make([]float64, sz)
	}
	b.colv = b.colv[:sz]
	return b.colv
}

func (b *bootBufs) grabIdx(sz int) []int32 {
	if cap(b.idx) < sz {
		b.idx = make([]int32, sz)
	}
	b.idx = b.idx[:sz]
	return b.idx
}

func (b *bootBufs) grabSval(sz int) []float64 {
	if cap(b.sval) < sz {
		b.sval = make([]float64, sz)
	}
	b.sval = b.sval[:sz]
	return b.sval
}

// grabCnt returns a zeroed bucket-count array (its user accumulates).
func (b *bootBufs) grabCnt(sz int) []int32 {
	if cap(b.cnt) < sz {
		b.cnt = make([]int32, sz)
	}
	b.cnt = b.cnt[:sz]
	for i := range b.cnt {
		b.cnt[i] = 0
	}
	return b.cnt
}

func (b *bootBufs) grabSlot(sz int) []int32 {
	if cap(b.slot) < sz {
		b.slot = make([]int32, sz)
	}
	b.slot = b.slot[:sz]
	return b.slot
}

func (b *bootBufs) grabItems(sz int) []int32 {
	if cap(b.items) < sz {
		b.items = make([]int32, sz)
	}
	b.items = b.items[:sz]
	return b.items
}

// bootstrapCtx derives a bootstrap resample's training context from the
// master structures in O(features × rows) — no per-tree sort, and with
// all storage drawn from the buffer pool. picks[i] is the master row
// resampled into position i.
//
// Within a run of EQUAL feature values the derived order groups the
// copies of one master row together rather than sorting by resample
// index, so it can differ from a direct canonical sort of the resampled
// matrix. That difference is invisible to training: the split scan only
// evaluates cut points at value boundaries, and a bagged fit's uniform
// unit weights make every prefix statistic there an exact integer
// count, identical for any permutation of an equal-value run.
// Non-uniform weights never take this path (FitWeighted presorts its
// own matrix directly). The one exception is the NaN tail: NaN != NaN,
// so the scan does look inside it, and its order is restored to the
// canonical ascending-row form with a cheap integer sort below.
func bootstrapCtx(master *trainCtx, nf, n int, picks []int) *trainCtx {
	bufs := bootPool.Get().(*bootBufs)
	colv := bufs.grabColv(nf * n)
	if master.cols == nil {
		// Random-threshold trees never consult sorted order: derive only
		// the resampled column-major values.
		for f := 0; f < nf; f++ {
			src := master.colv[f*n : (f+1)*n]
			dstV := colv[f*n : (f+1)*n]
			for i, r := range picks {
				dstV[i] = src[r]
			}
		}
		return &trainCtx{colv: colv, owned: true, bufs: bufs}
	}
	idx := bufs.grabIdx(nf * n)
	sval := bufs.grabSval(nf * n)
	// CSR buckets: for each master row, its resample positions ascending.
	cnt := bufs.grabCnt(n + 1)
	for _, r := range picks {
		cnt[r+1]++
	}
	for r := 0; r < n; r++ {
		cnt[r+1] += cnt[r]
	}
	slot := bufs.grabSlot(n)
	copy(slot, cnt[:n])
	items := bufs.grabItems(n)
	for i, r := range picks {
		items[slot[r]] = int32(i)
		slot[r]++
	}
	for f := 0; f < nf; f++ {
		src := master.colv[f*n : (f+1)*n]
		dstV := colv[f*n : (f+1)*n]
		for i, r := range picks {
			dstV[i] = src[r]
		}
		p := 0
		nanStart := -1
		dstI := idx[f*n : (f+1)*n]
		dstS := sval[f*n : (f+1)*n]
		for _, r := range master.cols.col(f) {
			if nanStart < 0 && math.IsNaN(src[r]) {
				nanStart = p // master NaNs are contiguous at the tail
			}
			v := src[r]
			for q := cnt[r]; q < cnt[r+1]; q++ {
				dstI[p] = items[q]
				dstS[p] = v
				p++
			}
		}
		// The tail re-sort permutes only NaN positions, whose parallel
		// values are all NaN — dstS needs no reordering.
		if nanStart >= 0 {
			slices.Sort(dstI[nanStart:p])
		}
	}
	return &trainCtx{colv: colv, cols: &sortedCols{n: n, idx: idx, val: sval}, owned: true, bufs: bufs}
}
