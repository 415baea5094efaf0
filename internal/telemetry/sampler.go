package telemetry

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// SamplePeriod is the LDMS sampling cadence in seconds. Ticks are aligned
// to multiples of the period globally, so the same instant always yields
// the same sample regardless of which window asks for it.
const SamplePeriod = 15.0

// WindowSeconds is the aggregation window used throughout the paper: the
// five minutes of counter data preceding a job's start.
const WindowSeconds = 300.0

// WindowTicks is the number of aligned sample ticks in the standard
// aggregation window.
const WindowTicks = int(WindowSeconds / SamplePeriod)

// maxScopeNodes caps how many nodes an aggregation walks. The paper's
// "all nodes" scope covers the whole machine; statistically a fixed-size
// deterministic stratified subset preserves the min/mean/max aggregates
// while keeping the simulated collection pipeline tractable. Job-scoped
// aggregations are far below the cap and are never subsampled.
const maxScopeNodes = 64

// FaultModel lets a fault injector corrupt the counter stream the
// sampler synthesizes, reproducing the gaps and stalls of a real LDMS
// deployment. Implementations must be pure functions of their arguments
// (and their own seed) so that overlapping windows agree on shared
// samples and runs stay reproducible.
type FaultModel interface {
	// Dropped reports whether the sample of the given table on node at
	// tick was lost in transit. A dropped table contributes NaN to every
	// aggregate of its counters at that tick.
	Dropped(table string, node cluster.NodeID, tick int64) bool
	// SampleTick returns the tick whose value is actually reported at
	// tick: normally tick itself, or an earlier tick while the node's
	// counters are frozen (a stalled sampler keeps resending stale
	// values). The result must never exceed tick.
	SampleTick(node cluster.NodeID, tick int64) int64
}

// Sampler synthesizes counter samples from the simulator's load history.
//
// It computes only the counters SetCounterMask names (a RUSH gate names
// those its model reads); the others are neither hashed nor folded and
// aggregate to 0. A value depends on its own counter's hash and signal
// alone, so the computed ones are bit-identical to an unmasked sampler's.
// A fault model turns the mask off: the gate's missing-feature check
// counts every counter.
//
// Aggregation queries are memoized twice. A dense row store (see
// rowStore) keeps each computed (node, tick) sample row — the values of
// the counters in cols only — in the node's ring of ringTicks rows, so
// overlapping and sliding windows compute only the rows they have not
// seen (see fill for the exact reuse conditions). A window memo (see
// windowMemo) keeps the last few finished windows of the current bounds,
// so the queued jobs of one scheduling pass that would land on the same
// nodes fold their shared window once.
// The store relies on windows never extending beyond the current
// simulated instant — load history only ever mutates at the present, so
// every sample inside a past window is final. Callers must therefore
// pass t1 <= now; sampling the future would be meaningless anyway. One
// exception is known: a tick before the history's first epoch reads that
// epoch's loads, which a mutation at the same instant still changes, so
// rows stored for such ticks while the clock stands at the first epoch
// can go stale; the from-scratch recompute would read the new loads. A
// memoized window is one all of whose rows are stored, so it answers as
// the stored rows would.
//
// The store's memory is taken on the first query and kept for the
// sampler's life, unless the sampler is done with it: Release hands it to
// a process-wide free list that the next sampler's store takes from, so
// consecutive trials in one process share one store's memory. A released
// sampler stays usable; its next query takes memory again.
type Sampler struct {
	topo   cluster.Topology
	faults FaultModel

	// noiseHash[ci] is the sample-noise hash after the seed and counter
	// ci: the one of a sample's four hash rounds that depends on neither
	// node nor tick (see computeRow).
	noiseHash [NumCounters]sim.HashState

	// mask[ci] says whether the installed mask reads counter ci. cols
	// (backed by colBuf) lists the counters a row carries, in schema
	// order: the mask's, or all of them under a fault model. Row values
	// and tick folds are laid out by position in cols, and so is colTab,
	// which holds what the row kernel reads of each.
	mask   [NumCounters]bool
	cols   []uint8
	colBuf [NumCounters]uint8
	colTab [NumCounters]column

	store rowStore
	memo  windowMemo
	stats SamplerStats

	scratch [NumCounters]float64 // rows that bypass the store: sub-period windows, nodes without a ring

	// Reusable scratch for the allocation-free aggregation path.
	capBuf   []cluster.NodeID
	sliceBuf []simnet.Slice
}

// column is what the row kernel reads of one counter: its noise hash
// after the seed and counter (noiseHash), and its synthesis constants.
type column struct {
	hash              sim.HashState
	base, gain, noise float64
	src               Src
}

// SamplerStats counts a sampler's work since it was made.
type SamplerStats struct {
	Windows uint64 // windows aggregated
	Reuses  uint64 // of those, answered whole from the window memo
	Rows    uint64 // (node, tick) sample rows computed
}

const (
	// ringTicks is the depth of a node's row ring: the most ticks a
	// standard window can span, WindowTicks plus the one float rounding
	// at its edges can add, so every tick of it has a slot of its own.
	ringTicks = WindowSeconds/SamplePeriod + 1
	// blockNodes is how many consecutive node IDs share one allocation.
	// A decision scope is a handful of runs of adjacent nodes, so
	// allocating per block costs fewer allocations than a slab per node
	// and wastes little.
	blockNodes = 16
	// slotsPerBlock is the number of (node, tick) rows in one block.
	slotsPerBlock = ringTicks * blockNodes
)

// rowHead tags one (node, tick) slot of the store. tick is the tick the
// slot's row holds. effT is the instant whose latent loads its values
// reflect — the tick's own time normally, an earlier one while the node's
// counters are frozen. gen is the store generation the row was written
// under; a row of another generation (zero: not cacheable; or written by
// an earlier owner of the memory, see storeGens) is empty.
type rowHead struct {
	gen  uint64
	tick int64
	effT float64
}

// rowBlock holds the rings of blockNodes adjacent nodes, tick-major: the
// rows of one tick lie side by side, the order a window reads them in.
// vals is one pointer-free slab of slotsPerBlock rows of the store's
// width (see computeRow); heads[i] tags row i, vals[i*width:(i+1)*width].
type rowBlock struct {
	vals  []float64 // nil until a scope names one of the block's nodes
	heads [slotsPerBlock]rowHead
}

// rowStore is the sampler's row cache: per node a ring of ringTicks rows,
// each tagged with the tick it holds. The blocks, heads included, are one
// array taken on the first query (8 KB per 16 nodes of the topology); a
// block's values, 6.2 KB per node at 37 counters and 15 KB at 90, are
// taken when a scope first names one of its nodes. Nothing grows with the
// length of the run. Both are taken from the free list (see freeStore)
// when it holds one large enough, and made otherwise; a row width change
// and Sampler.Release put the values back, and Release the array too.
// Recycled memory is not cleared: its heads carry generations no live
// store has, and a row's values are written before they are read.
type rowStore struct {
	hist   *simnet.History // history the stored rows were computed from
	blocks []rowBlock      // indexed by node / blockNodes
	width  int             // values per row: len(Sampler.cols)
	gen    uint64          // rows of any other generation are empty
	pruned float64         // rows that reflect an instant before this one are empty
}

// storeGens hands out store generations, process-wide and from 1 up, so
// a head written under one store's generation never reads as live in
// another store that later takes over its memory.
var storeGens atomic.Uint64

// freeStoreBytes bounds the memory the free list keeps: the stores of
// several concurrent gated trials on Pod512 (3.4 MB each at 37
// counters), or one on all of Quartz (20 MB). What a release finds no
// room for is left to the collector.
const freeStoreBytes = 32 << 20

// freeStore is the process-wide free list of row-store memory: the block
// arrays and value slabs released stores hand back, every block's vals
// nil in the arrays. It is a plain list, not a sync.Pool, so what a
// sampler allocates does not depend on when the collector last ran.
var freeStore struct {
	sync.Mutex
	blocks [][]rowBlock
	vals   [][]float64
	bytes  int // kept by blocks and vals together
}

// takeFree returns a slice of n elements: the last entry of list with
// the capacity for them, removed from the free list, or a new slice.
func takeFree[T any](list *[][]T, n int) []T {
	freeStore.Lock()
	defer freeStore.Unlock()
	l := *list
	for i := len(l) - 1; i >= 0; i-- {
		if b := l[i]; cap(b) >= n {
			l[i] = l[len(l)-1]
			l[len(l)-1] = nil
			*list = l[:len(l)-1]
			freeStore.bytes -= cap(b) * int(unsafe.Sizeof(b[0]))
			return b[:n]
		}
	}
	return make([]T, n)
}

// putFree adds b to list if the free list has room for it.
func putFree[T any](list *[][]T, b []T) {
	freeStore.Lock()
	defer freeStore.Unlock()
	size := cap(b) * int(unsafe.Sizeof(b[0]))
	if freeStore.bytes+size <= freeStoreBytes {
		*list = append(*list, b[:0])
		freeStore.bytes += size
	}
}

// memoEntries is how many windows of one instant the memo keeps: on the
// paper's trials a pass asks for a handful of distinct scopes, and four
// catch every repeat.
const memoEntries = 4

// windowMemo keeps the last memoEntries finished windows of one pair of
// bounds (t0, t1), keyed by capped scope. An entry is a window all of
// whose rows were live in the store when it finished, so while nothing
// moves the store a hit answers what folding those rows again would.
// Anything that could move it empties the memo: new bounds, a flush (new
// history, fault model or counter mask) and a prune. The buffers are made
// on first use, vals sized by the row width.
type windowMemo struct {
	t0, t1 float64
	puts   int              // windows put since the memo was emptied
	lens   [memoEntries]int // entry e's scope is keys[e*maxScopeNodes:][:lens[e]]
	keys   []cluster.NodeID // memoEntries × maxScopeNodes
	vals   []float64        // entry e's min, mean, max of cols[j] at 3*(e*width+j)
}

// reset empties the memo.
func (m *windowMemo) reset() { m.puts = 0 }

// get writes the window of scope at bounds (t0, t1) into out, which
// startAggregates has set up, and reports true if the memo holds it. New
// bounds empty the memo and become its own.
func (m *windowMemo) get(t0, t1 float64, scope []cluster.NodeID, cols []uint8, out *Aggregates) bool {
	if t0 != m.t0 || t1 != m.t1 {
		m.t0, m.t1, m.puts = t0, t1, 0
		return false
	}
	for e := range min(m.puts, memoEntries) {
		if slices.Equal(m.keys[e*maxScopeNodes:][:m.lens[e]], scope) {
			v := m.vals[3*e*len(cols):]
			for j, ci := range cols {
				out.Min[ci], out.Mean[ci], out.Max[ci] = v[3*j], v[3*j+1], v[3*j+2]
			}
			return true
		}
	}
	return false
}

// put stores the finished window of scope at the memo's bounds, over the
// oldest entry once all are held.
func (m *windowMemo) put(scope []cluster.NodeID, cols []uint8, agg *Aggregates) {
	if m.keys == nil {
		m.keys = make([]cluster.NodeID, memoEntries*maxScopeNodes)
	}
	if len(m.vals) != 3*memoEntries*len(cols) {
		m.vals = make([]float64, 3*memoEntries*len(cols))
	}
	e := m.puts % memoEntries
	m.puts++
	m.lens[e] = copy(m.keys[e*maxScopeNodes:(e+1)*maxScopeNodes], scope)
	v := m.vals[3*e*len(cols):]
	for j, ci := range cols {
		v[3*j], v[3*j+1], v[3*j+2] = agg.Min[ci], agg.Mean[ci], agg.Max[ci]
	}
}

// NewSampler returns a sampler over topo whose noise derives from rng
// (use a dedicated child stream, e.g. root.Derive("telemetry")).
func NewSampler(topo cluster.Topology, rng *sim.Source) *Sampler {
	s := &Sampler{topo: topo}
	for i := range schema {
		s.noiseHash[i] = rng.HashPrefix(uint64(i) + 1)
		s.mask[i] = true
	}
	s.setCols()
	return s
}

// SetFaults installs a fault model (nil restores the healthy stream). The
// row store is flushed: stored rows are only valid under the fault model
// that produced them.
func (s *Sampler) SetFaults(f FaultModel) {
	s.faults = f
	s.setCols()
}

// SetCounterMask restricts the counters the sampler computes to those
// read marks (a new sampler computes all of them); see Sampler. The row
// store is flushed, as on SetFaults.
func (s *Sampler) SetCounterMask(read [NumCounters]bool) {
	s.mask = read
	s.setCols()
}

// setCols works out cols and colTab from the mask and the fault model,
// and flushes the rows computed under the previous list. A list of
// another length changes the row width: the values of the old width go
// to the free list, and come back at the new width when touched.
func (s *Sampler) setCols() {
	s.cols = s.colBuf[:0]
	for ci, read := range s.mask {
		if read || s.faults != nil {
			c := &schema[ci]
			s.colTab[len(s.cols)] = column{hash: s.noiseHash[ci], base: c.Base, gain: c.Gain, noise: c.Noise, src: c.Src}
			s.cols = append(s.cols, uint8(ci))
		}
	}
	if st := &s.store; st.width != len(s.cols) {
		st.width = len(s.cols)
		st.freeVals()
	}
	s.flush()
}

// flush empties the store in O(1) by moving to a new generation, and the
// memo with it. The prune watermark goes too: rows written from here on
// are computed from the history as it is now.
func (s *Sampler) flush() {
	st := &s.store
	st.gen = storeGens.Add(1)
	st.pruned = math.Inf(-1)
	s.memo.reset()
}

// Release flushes the store and hands its memory, the block array and
// every block's values, to the process-wide free list, for the next store
// made in the process to take. Call it when the sampler's trial is done;
// the sampler stays usable, and its next query takes memory again.
func (s *Sampler) Release() {
	s.flush()
	st := &s.store
	if st.blocks == nil {
		return
	}
	st.freeVals() // before the array is listed, whose next owner reads its vals
	putFree(&freeStore.blocks, st.blocks)
	st.blocks = nil
}

// freeVals puts every block's values on the free list and leaves the
// blocks without.
func (st *rowStore) freeVals() {
	for b := range st.blocks {
		if v := st.blocks[b].vals; v != nil {
			putFree(&freeStore.vals, v)
			st.blocks[b].vals = nil
		}
	}
}

// bind points the store at hist, flushing it if the rows in it came from
// another history, and takes the blocks on first use.
func (s *Sampler) bind(hist *simnet.History) {
	st := &s.store
	if st.hist != hist {
		s.flush()
		st.hist = hist
	}
	if st.blocks == nil {
		st.blocks = takeFree(&freeStore.blocks, (s.topo.Nodes+blockNodes-1)/blockNodes)
	}
	if s.sliceBuf == nil {
		// A window holds a slice per load epoch it covers: some tens on
		// the paper's trials. Sized once here, the buffer need not grow
		// there from empty, one allocation per doubling.
		s.sliceBuf = make([]simnet.Slice, 0, 64)
	}
}

// ringPos is the position of tick in a node's ring: a floored modulo, so
// negative ticks (windows that start before time zero) keep slots of
// their own.
func ringPos(tick int64) int { return int((tick%ringTicks + ringTicks) % ringTicks) }

// slot returns the head and the values of the slot at ring position pos
// (see ringPos) of node's ring, taking the values of the node's block if
// this is the first time a scope names it since the width was set or the
// store released. node must be one the topology has.
func (st *rowStore) slot(node cluster.NodeID, pos int) (*rowHead, []float64) {
	blk := &st.blocks[node/blockNodes]
	if blk.vals == nil {
		blk.vals = takeFree(&freeStore.vals, slotsPerBlock*st.width)
	}
	i := pos*blockNodes + int(node%blockNodes)
	return &blk.heads[i], blk.vals[i*st.width : (i+1)*st.width]
}

// live reports whether h holds the row of tick and a window starting at
// t0 may reuse it: it was written under this generation, and the instant
// its values reflect is neither before the window (see fill) nor before
// the prune watermark.
func (st *rowStore) live(h *rowHead, tick int64, t0 float64) bool {
	return h.gen == st.gen && h.tick == tick && h.effT >= t0 && h.effT >= st.pruned
}

// Prune evicts stored sample rows that reflect instants before t, in
// O(1), by raising a watermark that lookups honour, and empties the
// window memo. Call it alongside History.Prune with the same cutoff; as
// with the history, t must trail the oldest window any future query will
// ask for (a query behind the watermark is answered as the reference
// answers it, but recomputes its rows every time).
func (s *Sampler) Prune(t float64) {
	if t > s.store.pruned {
		s.store.pruned = t
	}
	s.memo.reset()
}

// Stats returns the work the sampler has done since it was made.
func (s *Sampler) Stats() SamplerStats { return s.stats }

// StoreBytes returns the bytes the row store holds: its blocks with
// their heads, and the values allocated in them, at the capacity of
// memory taken from the free list (observability hook; it walks the
// blocks).
func (s *Sampler) StoreBytes() int {
	st := &s.store
	n := cap(st.blocks) * int(unsafe.Sizeof(rowBlock{}))
	for b := range st.blocks {
		n += 8 * cap(st.blocks[b].vals)
	}
	return n
}

// Aggregates holds min/mean/max per counter, aggregated over every
// (node, sample tick) pair in a window, in schema order. Under an active
// fault model a counter whose every sample was dropped aggregates to NaN
// in all three slices; downstream feature consumers must tolerate that.
// A counter outside the sampler's mask aggregates to 0.
type Aggregates struct {
	Min  []float64
	Mean []float64
	Max  []float64
}

// Clone returns a deep copy of the aggregates with freshly allocated
// slices. Snapshot publishers (internal/sched.Snapshot, the serving
// daemon's ingest path) freeze a window with it so the immutable
// snapshot cannot alias a buffer the sampler keeps rewriting.
func (a Aggregates) Clone() Aggregates {
	return Aggregates{
		Min:  append([]float64(nil), a.Min...),
		Mean: append([]float64(nil), a.Mean...),
		Max:  append([]float64(nil), a.Max...),
	}
}

// mayMiss reports whether a sample row can hold NaN, which only a fault
// model (dropped tables) can put there: finite loads synthesize finite
// samples.
func (s *Sampler) mayMiss() bool { return s.faults != nil }

// tickLoad is one tick of a window: its index and ring position, its
// sample time (clamped to the window start for the fallback tick of a
// sub-period window) and the latent loads at that time, resolved once per
// tick rather than once per node.
type tickLoad struct {
	tick int64
	pos  int
	t    float64
	net  []float64
	fs   float64
}

// windowTicks resolves len(ticks) ticks from first on of a window
// starting at t0 into ticks, walking the window's slices once.
func windowTicks(slices []simnet.Slice, t0 float64, first int64, ticks []tickLoad) {
	cursor := 0
	for k := range ticks {
		tk := &ticks[k]
		tk.tick = first + int64(k)
		tk.pos = ringPos(tk.tick)
		tk.t = float64(tk.tick) * SamplePeriod
		if tk.t < t0 {
			tk.t = t0 // fallback tick of a sub-period window
		}
		cursor, tk.net, tk.fs = loadsAt(slices, cursor, tk.t)
	}
}

// nodeHashes sets pre[j] to counter cols[j]'s noise hash after node: the
// round of a sample's hash that depends on the node and not on the tick,
// taken once per node for all the ticks of a window.
func (s *Sampler) nodeHashes(node cluster.NodeID, pre []sim.HashState) {
	w := uint64(node) + 0x9e37
	for j := range pre {
		pre[j] = s.colTab[j].hash.Mix(w)
	}
}

// computeRow is the row kernel: it fills vals with the sample row of
// (node, tk.tick), vals[j] the value of counter cols[j] (NaN for dropped
// tables), from the node's hashes pre (see nodeHashes), and returns the
// effective instant the values reflect.
//
// A counter's value is an affine function of its latent signal times
// uniform multiplicative noise of the configured sigma (uniform on
// [-sqrt(3)sigma, +sqrt(3)sigma] matches the variance of a normal at a
// fraction of the cost, and counters aren't Gaussian anyway). The noise
// is a deterministic hash of (counter, node, tick), so overlapping
// windows agree on shared samples; the rounds of it that do not depend
// on the tick come from pre, so a value costs the tick's round and the
// final one.
func (s *Sampler) computeRow(slices []simnet.Slice, node cluster.NodeID, pre []sim.HashState, tk *tickLoad, vals []float64) (effT float64) {
	effTick, effNet, effFS, effT := tk.tick, tk.net, tk.fs, tk.t
	if s.faults != nil {
		// Frozen counters repeat an earlier tick's sample: the value
		// reflects the loads at the freeze instant (clamped to the
		// history the window fetched) and its noise stays constant.
		if et := s.faults.SampleTick(node, tk.tick); et < tk.tick {
			effTick = et
			effT = float64(et) * SamplePeriod
			_, effNet, effFS = loadsAt(slices, 0, effT)
		}
	}
	var net float64
	if pod := s.topo.PodOf(node); uint(pod) < uint(len(effNet)) {
		net = effNet[pod]
	}
	// The five latent signals, indexed by Src (SrcNoise carries none).
	signal := [SrcNoise + 1]float64{
		SrcNet: net, SrcNetOverload: simnet.Overload(net),
		SrcFS: effFS, SrcFSOverload: simnet.Overload(effFS),
	}
	tickWord := uint64(effTick) + 0x7f4a
	lastTable, lastDropped := "", false
	tab, pre, faulty := s.colTab[:len(vals)], pre[:len(vals)], s.faults != nil
	for j := range vals {
		c := &tab[j]
		if faulty {
			// Whole tables drop together (one lost LDMS message per
			// table); memoize across the contiguous block.
			if tb := schema[s.cols[j]].Table; tb != lastTable {
				lastTable = tb
				lastDropped = s.faults.Dropped(tb, node, tk.tick)
			}
			if lastDropped {
				vals[j] = math.NaN()
				continue
			}
		}
		u := 2*pre[j].Mix(tickWord).Unit() - 1
		v := (c.base + c.gain*signal[c.src]) * (1 + c.noise*u*math.Sqrt(3))
		if v < 0 {
			v = 0
		}
		vals[j] = v
	}
	return effT
}

// fill makes the store hold the row of every (node, tick) of nodes ×
// ticks for a window starting at t0, node by node, so each node's hashes
// are taken once. It reports whether every row is one the store keeps,
// which makes the window one the memo may keep. The caller must have
// bound the store to the history the slices came from, and ticks must be
// distinct and span at most ringTicks, so no two share a slot. A node ID
// the topology does not have has no ring: it is left to row.
//
// A stored row is reusable only when its effective instant lies inside
// the querying window (effT >= t0): frozen rows whose source instant
// precedes the window are computed from loads clamped to the window's
// first slice, which makes their values window-dependent — those are
// left in the slot marked empty, so every query recomputes them and none
// can poison another. Without a fault model effT is the tick's own time
// and every row is kept. Rows are cacheable under the sampler-wide
// contract that windows end at or before the current simulated instant,
// which makes every in-window load epoch final.
func (s *Sampler) fill(slices []simnet.Slice, nodes []cluster.NodeID, t0 float64, ticks []tickLoad) (kept bool) {
	var hashes [NumCounters]sim.HashState
	st, pre := &s.store, hashes[:len(s.cols)]
	kept = true
	for _, node := range nodes {
		if uint(node) >= uint(s.topo.Nodes) {
			kept = false
			continue
		}
		hashed := false
		for k := range ticks {
			tk := &ticks[k]
			h, vals := st.slot(node, tk.pos)
			if st.live(h, tk.tick, t0) {
				continue
			}
			if !hashed {
				s.nodeHashes(node, pre)
				hashed = true
			}
			s.stats.Rows++
			h.tick, h.effT = tk.tick, s.computeRow(slices, node, pre, tk, vals)
			if h.effT >= t0 {
				h.gen = st.gen
			} else {
				h.gen = 0 // window-dependent: nobody may reuse it
				kept = false
			}
		}
	}
	return kept
}

// row returns the values of (node, tk.tick)'s row: as fill left it in
// the store, or, when stored is false (a window the store does not keep)
// or the node has no ring, computed into scratch. The row is valid until
// the next call.
func (s *Sampler) row(slices []simnet.Slice, node cluster.NodeID, tk *tickLoad, stored bool) []float64 {
	if stored && uint(node) < uint(s.topo.Nodes) {
		_, vals := s.store.slot(node, tk.pos)
		return vals
	}
	var hashes [NumCounters]sim.HashState
	vals, pre := s.scratch[:len(s.cols)], hashes[:len(s.cols)]
	s.nodeHashes(node, pre)
	s.stats.Rows++
	s.computeRow(slices, node, pre, tk, vals)
	return vals
}

// AggregateWindow computes min/mean/max of every counter over the window
// [t1-WindowSeconds, t1) across the given nodes, reading latent loads
// from hist. An empty node list or a window with no aligned ticks falls
// back to a single sample at the window end so callers always get a
// complete feature vector. t1 must not exceed the current simulated
// instant (see Sampler).
func (s *Sampler) AggregateWindow(hist *simnet.History, nodes []cluster.NodeID, t1 float64) Aggregates {
	var agg Aggregates
	s.AggregateWindowInto(hist, nodes, t1, &agg)
	return agg
}

// AggregateWindowInto is AggregateWindow writing into out, reusing its
// slices. Together with the row store this makes window aggregation
// allocation-free once the scope's row blocks exist.
func (s *Sampler) AggregateWindowInto(hist *simnet.History, nodes []cluster.NodeID, t1 float64, out *Aggregates) {
	s.AggregateRangeInto(hist, nodes, t1-WindowSeconds, t1, out)
}

// AggregateRangeInto is AggregateWindowInto over an explicit [t0, t1)
// interval: a memoized window is copied, stored rows are reused, new ones
// computed in place.
func (s *Sampler) AggregateRangeInto(hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64, out *Aggregates) {
	s.stats.Windows++
	s.aggregateInto(hist, nodes, t0, t1, out)
}

// aggregateInto is the one aggregation loop. A window the memo holds is
// copied out of it. Otherwise the window goes in chunks of at most
// ringTicks ticks: fill computes the chunk's missing rows node by node,
// then each tick's rows go through one tickFold, node-major, and the tick
// folds are merged in tick order. A window all of whose rows the store
// keeps goes into the memo.
func (s *Sampler) aggregateInto(hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64, out *Aggregates) {
	var (
		fold   tickFold
		counts [NumCounters]int
		ticks  [ringTicks]tickLoad
	)
	startAggregates(out, s.cols)
	nodes = s.capNodesInto(nodes)
	if len(nodes) == 0 {
		return
	}

	stored := true
	first, last := tickBounds(t0, t1)
	if last < first {
		// A window shorter than one period still yields one sample (the
		// tick containing t0) so feature vectors are never empty. Its
		// sample time is clamped to t0, so the row is the window's own.
		first = int64(math.Floor(t0 / SamplePeriod))
		last = first
		stored = false
	}
	if stored {
		s.bind(hist)
		if s.memo.get(t0, t1, nodes, s.cols, out) {
			s.stats.Reuses++
			return
		}
	}
	s.sliceBuf = hist.WindowInto(t0, t1, s.sliceBuf[:0])
	// A window longer than a ring overwrites its first chunks' rows with
	// its later ones, so it is not one whose rows the store keeps.
	mayMiss, kept := s.mayMiss(), stored && last-first < ringTicks
	fold.reset()
	for c0 := first; c0 <= last; c0 += ringTicks {
		chunk := ticks[:min(last-c0+1, ringTicks)]
		windowTicks(s.sliceBuf, t0, c0, chunk)
		if stored && !s.fill(s.sliceBuf, nodes, t0, chunk) {
			kept = false
		}
		for k := range chunk {
			fold.nextTick()
			for _, node := range nodes {
				fold.add(s.row(s.sliceBuf, node, &chunk[k], stored), mayMiss)
			}
			fold.mergeInto(out, &counts, s.cols)
		}
	}
	finishAggregates(out, &counts, s.cols)
	if kept {
		s.memo.put(nodes, s.cols, out)
	}
}

// FreshnessAge reports how stale the counter stream feeding a decision at
// time t1 is: the age, in seconds before t1, of the newest sample that
// actually arrived for the given nodes within the standard aggregation
// window — where a frozen sample counts with the age of the instant its
// value reflects. With no fault model installed the age is at most one
// sample period. +Inf means no sample in the window arrived at all. It
// performs no heap allocations.
func (s *Sampler) FreshnessAge(nodes []cluster.NodeID, t1 float64) float64 {
	nodes = s.capNodesInto(nodes)
	if len(nodes) == 0 {
		return math.Inf(1)
	}
	first, last := tickBounds(t1-WindowSeconds, t1)
	if last < first {
		first = int64(math.Floor((t1 - WindowSeconds) / SamplePeriod))
		last = first
	}
	if s.faults == nil {
		return t1 - float64(last)*SamplePeriod
	}
	newest := math.Inf(-1)
	for tick := first; tick <= last; tick++ {
		for _, node := range nodes {
			eff := s.faults.SampleTick(node, tick)
			for _, tb := range tables {
				if s.faults.Dropped(tb, node, tick) {
					continue
				}
				if tm := float64(eff) * SamplePeriod; tm > newest {
					newest = tm
				}
				break // all tables share the node's freeze state
			}
		}
	}
	if math.IsInf(newest, -1) {
		return math.Inf(1)
	}
	return t1 - newest
}

// tickBounds returns the first and last global tick indices whose sample
// times fall in [t0, t1); last < first means the window is shorter than
// one period and callers should fall back to the tick containing t0.
func tickBounds(t0, t1 float64) (first, last int64) {
	first = int64(math.Ceil(t0 / SamplePeriod))
	last = int64(math.Ceil(t1/SamplePeriod)) - 1
	return first, last
}

// loadsAt finds the latent loads at time t within pre-fetched slices,
// looking from slice index from onwards, and returns the index it
// stopped at. A caller stepping through ascending times passes that
// index back in, so a window's ticks walk the slice list once between
// them; any other caller passes 0. Times outside the covered range clamp
// to the nearest slice.
func loadsAt(slices []simnet.Slice, from int, t float64) (int, []float64, float64) {
	if len(slices) == 0 {
		return 0, nil, 0
	}
	for i := from; i < len(slices); i++ {
		if t >= slices[i].T0 && t < slices[i].T1 {
			return i, slices[i].PodNet, slices[i].FS
		}
	}
	if t < slices[0].T0 {
		return from, slices[0].PodNet, slices[0].FS
	}
	last := slices[len(slices)-1]
	return from, last.PodNet, last.FS
}

// capNodesInto deterministically subsamples large scopes (every k-th
// node) so machine-wide aggregation stays cheap (see maxScopeNodes),
// reusing the sampler's scratch buffer; the result is valid until the
// next capNodesInto call.
func (s *Sampler) capNodesInto(nodes []cluster.NodeID) []cluster.NodeID {
	if len(nodes) <= maxScopeNodes {
		return nodes
	}
	if s.capBuf == nil {
		s.capBuf = make([]cluster.NodeID, maxScopeNodes)
	}
	stride := float64(len(nodes)) / float64(maxScopeNodes)
	for i := range s.capBuf {
		s.capBuf[i] = nodes[int(float64(i)*stride)]
	}
	return s.capBuf
}

// resizeFloats returns a length-n slice, reusing buf's backing array when
// it is large enough.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// AllNodes returns the node IDs of the whole machine, for machine-wide
// aggregation scopes.
func AllNodes(topo cluster.Topology) []cluster.NodeID {
	out := make([]cluster.NodeID, topo.Nodes)
	for i := range out {
		out[i] = cluster.NodeID(i)
	}
	return out
}
