package telemetry

import (
	"fmt"
	"math"

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

// DriftModel lets a fault injector shift the latent distributions the
// sampler synthesizes — the slow calibration drift, firmware-update
// regime changes, and sensor recalibrations a months-old trained model
// must survive. Implementations must be pure functions of their
// arguments (and their own seed): cached rows stay valid under a fixed
// drift model, overlapping windows agree on shared samples, and runs
// remain reproducible.
type DriftModel interface {
	// Perturb returns the drifted value of counter ci on node given the
	// healthy value v. tick is the effective sample tick (the instant
	// the value reflects), so frozen counters keep repeating their
	// pre-freeze, pre-drift value exactly as a stuck collector would.
	Perturb(ci int, node cluster.NodeID, tick int64, v float64) float64
}

// Sampler synthesizes counter samples from the simulator's load history.
//
// Aggregation queries are memoized in a dense row store (see rowStore):
// each computed (node, tick) sample row is kept in the node's ring of
// ringTicks rows, so overlapping and sliding windows recompute only the
// rows they have not seen (see rowFor for the exact reuse conditions).
// The store relies on windows never extending beyond the current
// simulated instant — load history only ever mutates at the present, so
// every sample inside a past window is final. Callers must therefore
// pass t1 <= now; sampling the future would be meaningless anyway.
type Sampler struct {
	topo   cluster.Topology
	schema []Counter
	faults FaultModel
	drift  DriftModel
	tables []string

	// noiseHash[ci] is the sample-noise hash after the seed and counter
	// ci: the one of a sample's four hash rounds that depends on neither
	// node nor tick (see computeRow).
	noiseHash [NumCounters]sim.HashState

	store   rowStore
	scratch sampleRow // rows that bypass the store: reference path, nodes without a ring

	// Reusable scratch for the allocation-free aggregation path.
	capBuf   []cluster.NodeID
	sliceBuf []simnet.Slice
}

const (
	// ringTicks is the width of a node's row ring: a power of two no
	// smaller than WindowTicks, so every tick of a standard window has a
	// slot of its own and tick & (ringTicks-1) addresses it.
	ringTicks = 32
	// blockNodes is how many consecutive node IDs share one allocation.
	// A decision scope is a handful of runs of adjacent nodes, so
	// allocating per block costs fewer allocations than a slab per node
	// and wastes little.
	blockNodes = 16
)

// sampleRow is one (node, tick) sample row: every counter's value at that
// tick, NaN where the table's sample was dropped. effT is the instant
// whose latent loads the values reflect — the tick's own time normally,
// an earlier one while the node's counters are frozen. gen is the store
// generation the row was written under; a row of another generation
// (zero: never written, or not cacheable) is empty.
type sampleRow struct {
	gen  uint64
	tick int64
	effT float64
	vals [NumCounters]float64
}

// rowBlock holds the rings of blockNodes adjacent nodes, tick-major: the
// rows of one tick lie side by side, which is the order a window reads
// them in.
type rowBlock [ringTicks * blockNodes]sampleRow

// rowStore is the sampler's row cache: per node a ring of ringTicks rows
// indexed by tick & (ringTicks-1), each tagged with the tick it holds.
// Memory is bounded by ringTicks rows (about 23 KB) per node that has
// ever been in a scope, rounded up to whole blocks, however long the run;
// nothing is allocated before the first query.
type rowStore struct {
	hist   *simnet.History // history the stored rows were computed from
	blocks []*rowBlock     // indexed by node / blockNodes; nil until touched
	gen    uint64          // rows of any other generation are empty
	pruned float64         // rows that reflect an instant before this one are empty
}

// NewSampler returns a sampler over topo whose noise derives from rng
// (use a dedicated child stream, e.g. root.Derive("telemetry")).
func NewSampler(topo cluster.Topology, rng *sim.Source) *Sampler {
	s := &Sampler{topo: topo, schema: Schema(), store: rowStore{gen: 1, pruned: math.Inf(-1)}}
	for i := range s.schema {
		c := &s.schema[i]
		if len(s.tables) == 0 || s.tables[len(s.tables)-1] != c.Table {
			s.tables = append(s.tables, c.Table)
		}
		if c.Src < SrcNet || c.Src > SrcNoise {
			panic(fmt.Sprintf("telemetry: unknown source %d", c.Src))
		}
		s.noiseHash[i] = rng.HashPrefix(uint64(i) + 1)
	}
	return s
}

// SetFaults installs a fault model (nil restores the healthy stream). The
// row store is flushed: stored rows are only valid under the fault model
// that produced them.
func (s *Sampler) SetFaults(f FaultModel) {
	s.faults = f
	s.store.flush()
}

// SetDrift installs a drift model (nil restores the calibrated stream).
// The row store is flushed, mirroring SetFaults: stored rows are only
// valid under the drift model that produced them.
func (s *Sampler) SetDrift(d DriftModel) {
	s.drift = d
	s.store.flush()
}

// flush empties the store in O(1) by moving to a new generation. The
// prune watermark goes with it: rows written from here on are computed
// from the history as it is now.
func (st *rowStore) flush() {
	st.gen++
	st.pruned = math.Inf(-1)
}

// bind points the store at hist, flushing it if the rows in it came from
// another history, and allocates the block index on first use.
func (st *rowStore) bind(hist *simnet.History, topo cluster.Topology) {
	if st.hist != hist {
		st.flush()
		st.hist = hist
	}
	if st.blocks == nil {
		st.blocks = make([]*rowBlock, (topo.Nodes+blockNodes-1)/blockNodes)
	}
}

// slot returns the ring slot of (node, tick), allocating the node's block
// if this is the first time a scope names it. node must be one the
// topology has. Negative ticks (windows that start before time zero)
// land in a slot like any other: the mask of a two's-complement tick is
// non-negative.
func (st *rowStore) slot(node cluster.NodeID, tick int64) *sampleRow {
	blk := st.blocks[node/blockNodes]
	if blk == nil {
		blk = new(rowBlock)
		st.blocks[node/blockNodes] = blk
	}
	return &blk[int(tick&(ringTicks-1))*blockNodes+int(node%blockNodes)]
}

// live reports whether r holds the row of tick and a window starting at
// t0 may reuse it: it was written under this generation, and the instant
// its values reflect is neither before the window (see rowFor) nor before
// the prune watermark.
func (st *rowStore) live(r *sampleRow, tick int64, t0 float64) bool {
	return r.gen == st.gen && r.tick == tick && r.effT >= t0 && r.effT >= st.pruned
}

// Prune evicts stored sample rows that reflect instants before t, in
// O(1), by raising a watermark that lookups honour. Call it alongside
// History.Prune with the same cutoff; as with the history, t must trail
// the oldest window any future query will ask for (a query behind the
// watermark is answered as the reference answers it, but recomputes its
// rows every time).
func (s *Sampler) Prune(t float64) {
	if t > s.store.pruned {
		s.store.pruned = t
	}
}

// CachedRows returns the number of (node, tick) sample rows currently
// memoized (observability and test hook; it walks the store).
func (s *Sampler) CachedRows() int {
	st := &s.store
	n := 0
	for _, blk := range st.blocks {
		if blk == nil {
			continue
		}
		for i := range blk {
			if r := &blk[i]; r.gen == st.gen && r.effT >= st.pruned {
				n++
			}
		}
	}
	return n
}

// Schema returns the sampler's counter schema.
func (s *Sampler) Schema() []Counter { return s.schema }

// Aggregates holds min/mean/max per counter, aggregated over every
// (node, sample tick) pair in a window, in schema order. Under an active
// fault model a counter whose every sample was dropped aggregates to NaN
// in all three slices; downstream feature consumers must tolerate that.
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
// model (dropped tables) or a drift model (Perturb returns what it likes)
// can put there: finite loads synthesize finite samples.
func (s *Sampler) mayMiss() bool { return s.faults != nil || s.drift != nil }

// computeRow fills r with the full sample row of (node, tick): every
// counter's value (NaN for dropped tables) plus the effective instant the
// values reflect. tickT is the tick's (possibly window-clamped) sample
// time and tickNet/tickFS the latent loads at it, hoisted by the caller
// so a tick's loads are resolved once per tick rather than once per node.
//
// A counter's value is an affine function of its latent signal times
// uniform multiplicative noise of the configured sigma (uniform on
// [-sqrt(3)sigma, +sqrt(3)sigma] matches the variance of a normal at a
// fraction of the cost, and counters aren't Gaussian anyway). The noise
// is a deterministic hash of (counter, node, tick), so overlapping
// windows agree on shared samples; the counter's round of it is taken
// from s.noiseHash.
func (s *Sampler) computeRow(slices []simnet.Slice, node cluster.NodeID, tick int64, tickT float64, tickNet []float64, tickFS float64, r *sampleRow) {
	effTick, effNet, effFS, effT := tick, tickNet, tickFS, tickT
	if s.faults != nil {
		// Frozen counters repeat an earlier tick's sample: the value
		// reflects the loads at the freeze instant (clamped to the
		// history the window fetched) and its noise stays constant.
		if et := s.faults.SampleTick(node, tick); et < tick {
			effTick = et
			effT = float64(et) * SamplePeriod
			_, effNet, effFS = loadsAt(slices, 0, effT)
		}
	}
	var net float64
	if pod := s.topo.PodOf(node); uint(pod) < uint(len(effNet)) {
		net = effNet[pod]
	}
	r.tick, r.effT = tick, effT
	// The five latent signals, indexed by Src (SrcNoise carries none).
	signal := [SrcNoise + 1]float64{
		SrcNet: net, SrcNetOverload: simnet.Overload(net),
		SrcFS: effFS, SrcFSOverload: simnet.Overload(effFS),
	}
	nodeWord, tickWord := uint64(node)+0x9e37, uint64(effTick)+0x7f4a
	lastTable, lastDropped := "", false
	for ci := range s.noiseHash {
		c := &s.schema[ci]
		if s.faults != nil {
			// Whole tables drop together (one lost LDMS message per
			// table); memoize across the contiguous block.
			if tb := c.Table; tb != lastTable {
				lastTable = tb
				lastDropped = s.faults.Dropped(tb, node, tick)
			}
			if lastDropped {
				r.vals[ci] = math.NaN()
				continue
			}
		}
		u := 2*s.noiseHash[ci].Mix(nodeWord).Mix(tickWord).Unit() - 1
		v := (c.Base + c.Gain*signal[c.Src]) * (1 + c.Noise*u*math.Sqrt(3))
		if v < 0 {
			v = 0
		}
		if s.drift != nil {
			// Drift applies at the effective tick: a frozen counter keeps
			// repeating the value (and drift state) of its freeze instant.
			v = s.drift.Perturb(ci, node, effTick, v)
		}
		r.vals[ci] = v
	}
}

// rowFor returns the sample row of (node, tick) for a window starting at
// t0, from the store when possible and computed in place in its ring
// slot otherwise. The caller must have bound the store to the history
// the slices came from, and must be done with the row before asking for
// the next: a window longer than the ring reuses slots as it goes. A
// stored row is reusable only when its effective instant lies inside the
// querying window (effT >= t0): frozen rows whose source instant precedes
// the window are computed from loads clamped to the window's first slice,
// which makes their values window-dependent — those are left in the slot
// marked empty, so every query recomputes them and none can poison
// another. Without a fault model effT is the tick's own time and every
// row is kept. Rows are cacheable under the sampler-wide contract that
// windows end at or before the current simulated instant, which makes
// every in-window load epoch final.
func (s *Sampler) rowFor(slices []simnet.Slice, t0, tickT float64, tickNet []float64, tickFS float64, node cluster.NodeID, tick int64) *sampleRow {
	if uint(node) >= uint(s.topo.Nodes) {
		// A node ID the topology does not have has no ring; it is
		// tolerated (its pod carries no load) and served uncached.
		s.computeRow(slices, node, tick, tickT, tickNet, tickFS, &s.scratch)
		return &s.scratch
	}
	r := s.store.slot(node, tick)
	if s.store.live(r, tick, t0) {
		return r
	}
	s.computeRow(slices, node, tick, tickT, tickNet, tickFS, r)
	if r.effT >= t0 {
		r.gen = s.store.gen
	} else {
		r.gen = 0 // window-dependent: nobody may reuse it
	}
	return r
}

// AggregateWindow computes min/mean/max of every counter over the window
// [t1-WindowSeconds, t1) across the given nodes, reading latent loads
// from hist. An empty node list or a window with no aligned ticks falls
// back to a single sample at the window end so callers always get a
// complete feature vector. t1 must not exceed the current simulated
// instant (see Sampler).
func (s *Sampler) AggregateWindow(hist *simnet.History, nodes []cluster.NodeID, t1 float64) Aggregates {
	return s.AggregateRange(hist, nodes, t1-WindowSeconds, t1)
}

// AggregateRange is AggregateWindow over an explicit [t0, t1) interval.
func (s *Sampler) AggregateRange(hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64) Aggregates {
	var agg Aggregates
	s.AggregateRangeInto(hist, nodes, t0, t1, &agg)
	return agg
}

// AggregateWindowInto is AggregateWindow writing into out, reusing its
// slices. Together with the row store this makes window aggregation
// allocation-free once the scope's row blocks exist.
func (s *Sampler) AggregateWindowInto(hist *simnet.History, nodes []cluster.NodeID, t1 float64, out *Aggregates) {
	s.AggregateRangeInto(hist, nodes, t1-WindowSeconds, t1, out)
}

// AggregateRangeInto is AggregateRange writing into out, reusing its
// slices (the fast path: stored rows reused, new ones computed in place).
func (s *Sampler) AggregateRangeInto(hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64, out *Aggregates) {
	s.aggregateInto(hist, nodes, t0, t1, out, true)
}

// AggregateRangeRef is AggregateRange bypassing the row store: every
// sample is recomputed from the load history. It exists as the reference
// implementation for the differential tests and benchmarks; the fast path
// must be bit-identical to it.
func (s *Sampler) AggregateRangeRef(hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64) Aggregates {
	var agg Aggregates
	s.aggregateInto(hist, nodes, t0, t1, &agg, false)
	return agg
}

// aggregateInto is the shared aggregation loop: each tick's rows go
// through one tickFold, node-major, and the tick folds are merged in tick
// order, which is what WindowAgg does with the tick folds it keeps.
func (s *Sampler) aggregateInto(hist *simnet.History, nodes []cluster.NodeID, t0, t1 float64, out *Aggregates, useCache bool) {
	var (
		fold   tickFold
		counts [NumCounters]int
	)
	startAggregates(out, &counts)
	nodes = s.capNodesInto(nodes)
	if len(nodes) == 0 {
		return
	}

	first, last := tickBounds(t0, t1)
	if last < first {
		// A window shorter than one period still yields one sample (the
		// tick containing t0) so feature vectors are never empty. Its
		// sample time is clamped to t0, so the row is the window's own.
		first = int64(math.Floor(t0 / SamplePeriod))
		last = first
		useCache = false
	}
	if useCache {
		s.store.bind(hist, s.topo)
	}
	s.sliceBuf = hist.WindowInto(t0, t1, s.sliceBuf[:0])
	mayMiss := s.mayMiss()
	cursor := 0
	fold.reset()
	for tick := first; tick <= last; tick++ {
		tickT := float64(tick) * SamplePeriod
		if tickT < t0 {
			tickT = t0 // fallback tick of a sub-period window
		}
		var tickNet []float64
		var tickFS float64
		cursor, tickNet, tickFS = loadsAt(s.sliceBuf, cursor, tickT)
		fold.nextTick()
		for _, node := range nodes {
			row := &s.scratch
			if useCache {
				row = s.rowFor(s.sliceBuf, t0, tickT, tickNet, tickFS, node, tick)
			} else {
				s.computeRow(s.sliceBuf, node, tick, tickT, tickNet, tickFS, row)
			}
			fold.add(&row.vals, mayMiss)
		}
		fold.mergeInto(out, &counts)
	}
	finishAggregates(out, &counts)
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
			for _, tb := range s.tables {
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

// capNodes deterministically subsamples large scopes (every k-th node) so
// machine-wide aggregation stays cheap; see maxScopeNodes.
func capNodes(nodes []cluster.NodeID) []cluster.NodeID {
	if len(nodes) <= maxScopeNodes {
		return nodes
	}
	out := make([]cluster.NodeID, 0, maxScopeNodes)
	return appendCapped(out, nodes)
}

// capNodesInto is capNodes reusing the sampler's scratch buffer; the
// result is valid until the next capNodesInto call.
func (s *Sampler) capNodesInto(nodes []cluster.NodeID) []cluster.NodeID {
	if len(nodes) <= maxScopeNodes {
		return nodes
	}
	if s.capBuf == nil {
		s.capBuf = make([]cluster.NodeID, 0, maxScopeNodes)
	}
	s.capBuf = appendCapped(s.capBuf[:0], nodes)
	return s.capBuf
}

func appendCapped(out, nodes []cluster.NodeID) []cluster.NodeID {
	stride := float64(len(nodes)) / float64(maxScopeNodes)
	for i := 0; i < maxScopeNodes; i++ {
		out = append(out, nodes[int(float64(i)*stride)])
	}
	return out
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
