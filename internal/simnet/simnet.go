// Package simnet models the shared resources whose contention causes
// performance variability: the per-pod fat-tree network, the fat tree's
// upper (inter-pod core) links, and the global parallel filesystem
// (Lustre on the paper's Quartz cluster).
//
// Load is tracked in normalized units where 1.0 is the nominal capacity of
// the resource. Running jobs, the all-to-all noise job, and ambient
// background traffic each register additive load contributions. The state
// records every load epoch in a History so that telemetry can be
// aggregated over any past window without sampling every node at every
// tick, and notifies subscribers whenever the load changes so running jobs
// can re-integrate their remaining work. The history is a ring: it keeps
// every epoch since the last Prune, grows only while it is full of live
// epochs, and a run that prunes on a cadence settles at a fixed size and
// stops allocating.
//
// # Incremental change tracking
//
// At full-machine scale (the paper's Quartz is 2,988 nodes across sixteen
// pods) the consumers of load changes must not pay for the whole machine
// on every mutation. The state therefore tracks dirtiness at the
// granularity a slowdown computation actually consumes: a pod is dirty
// only when its contention factor (Overload of its load) changed, not
// merely its raw load, and the core-link and filesystem loads are
// globals with their own dirtiness bits. Subscribers registered through
// SubscribeChanges receive a Change describing exactly which pods and
// globals crossed to a different contention factor, so a machine with
// hundreds of running jobs re-integrates only the jobs whose inputs
// moved. Mutations apply pod loads in ascending pod order
// regardless of how the Contribution map iterates, keeping every
// notification — and everything downstream of it — deterministic.
//
// # Cached contention factors
//
// The state keeps the contention factor of every pod, of the core links
// and of the filesystem beside the raw loads. A mutation evaluates
// Overload once for each load it moved — the evaluation that decides
// dirtiness — and stores the result; NetOverload, CoreOverload,
// FSOverload and the probes read the stored factor, so a consumer that
// asks for the same factor once per running job pays a load, not a
// division. Nothing else writes the factors, so each always equals
// Overload of its load (TestCachedFactorsTrackLoads).
package simnet

import (
	"fmt"
	"sort"

	"rush/internal/cluster"
)

// Contribution is one source's additive load. Network load is per pod;
// core-link and filesystem load are global.
type Contribution struct {
	// PodNet maps pod index -> network load injected into that pod.
	PodNet map[int]float64
	// Core is load on the fat tree's upper (inter-pod) links; only
	// traffic between pods contributes here.
	Core float64
	// FS is load on the global filesystem.
	FS float64
}

// Change describes which resources a single mutation moved to a
// different contention factor. A pod, the core links, or the filesystem
// is reported only when Overload of its load actually changed — raw load
// movement entirely below the congestion threshold dirties nothing,
// because no slowdown computed from the state can have changed.
type Change struct {
	// Pods lists, in ascending order, the pods whose network contention
	// factor changed. The slice aliases the state's scratch buffer and is
	// valid only for the duration of the callback; copy it to retain.
	Pods []int
	// Core reports whether the inter-pod core-link contention factor
	// changed.
	Core bool
	// FS reports whether the filesystem contention factor changed.
	FS bool
}

// Empty reports whether the change moved no contention factor at all.
func (c Change) Empty() bool { return len(c.Pods) == 0 && !c.Core && !c.FS }

// State tracks the current load on every shared resource.
type State struct {
	topo   cluster.Topology
	podNet []float64
	core   float64
	fs     float64
	// Contention factors of the loads above, written by mutate only:
	// podOv[p] == Overload(podNet[p]) and likewise for core and fs.
	podOv  []float64
	coreOv float64
	fsOv   float64
	now    func() float64
	hist   *History
	chSubs []func(Change)

	keyBuf   []int // sorted Contribution pods, reused across mutations
	dirtyBuf []int // pods whose Overload changed, reused across mutations
	inMutate bool
}

// NewState returns a state for topo whose history is stamped with times
// from now (typically sim.Engine.Now). It returns an error for an
// invalid topology.
func NewState(topo cluster.Topology, now func() float64) (*State, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	s := &State{
		topo:   topo,
		podNet: make([]float64, topo.Pods()),
		podOv:  make([]float64, topo.Pods()),
		now:    now,
		hist:   &History{pods: topo.Pods()},
	}
	s.hist.append(now(), s.podNet, s.core, s.fs)
	return s, nil
}

// Topology returns the state's topology.
func (s *State) Topology() cluster.Topology { return s.topo }

// SubscribeChanges registers fn to run after every mutation with the set
// of resources whose contention factor changed (possibly empty).
// Callbacks must not mutate the state re-entrantly — Apply/Remove from
// inside a callback panics — and must not retain Change.Pods beyond the
// call.
func (s *State) SubscribeChanges(fn func(Change)) { s.chSubs = append(s.chSubs, fn) }

// Apply adds a contribution to the current load.
func (s *State) Apply(c Contribution) {
	s.mutate(c, +1)
}

// Remove subtracts a previously applied contribution. Small negative
// residues from float round-off are clamped to zero.
func (s *State) Remove(c Contribution) {
	s.mutate(c, -1)
}

func (s *State) mutate(c Contribution, sign float64) {
	if s.inMutate {
		panic("simnet: re-entrant mutation from a subscriber callback")
	}
	s.inMutate = true
	defer func() { s.inMutate = false }()

	// Pod loads are applied in ascending pod order. Each pod's update is
	// independent, so the final loads are bit-identical to any other
	// order — sorting exists so the dirty set, and every notification
	// built from it, is deterministic regardless of map iteration.
	keys := s.keyBuf[:0]
	for pod := range c.PodNet {
		if pod < 0 || pod >= len(s.podNet) {
			panic(fmt.Sprintf("simnet: pod %d out of range (%d pods)", pod, len(s.podNet)))
		}
		keys = append(keys, pod)
	}
	sort.Ints(keys)
	dirty := s.dirtyBuf[:0]
	for _, pod := range keys {
		old := s.podNet[pod]
		nv := old + sign*c.PodNet[pod]
		if nv < 0 {
			if nv < -1e-9 {
				panic(fmt.Sprintf("simnet: pod %d load went negative: %v", pod, nv))
			}
			nv = 0
		}
		if nv == old {
			continue
		}
		s.podNet[pod] = nv
		if ov := Overload(nv); ov != s.podOv[pod] {
			s.podOv[pod] = ov
			dirty = append(dirty, pod)
		}
	}
	var coreDirty, fsDirty bool
	oldCore := s.core
	nv := oldCore + sign*c.Core
	if nv < 0 {
		if nv < -1e-9 {
			panic(fmt.Sprintf("simnet: core load went negative: %v", nv))
		}
		nv = 0
	}
	if nv != oldCore {
		s.core = nv
		if ov := Overload(nv); ov != s.coreOv {
			s.coreOv = ov
			coreDirty = true
		}
	}
	oldFS := s.fs
	nv = oldFS + sign*c.FS
	if nv < 0 {
		if nv < -1e-9 {
			panic(fmt.Sprintf("simnet: fs load went negative: %v", nv))
		}
		nv = 0
	}
	if nv != oldFS {
		s.fs = nv
		if ov := Overload(nv); ov != s.fsOv {
			s.fsOv = ov
			fsDirty = true
		}
	}
	// History records every raw-load epoch even when no contention
	// factor moved: telemetry samples raw loads, not just overloads.
	s.hist.append(s.now(), s.podNet, s.core, s.fs)
	s.keyBuf, s.dirtyBuf = keys, dirty
	if len(s.chSubs) > 0 {
		ch := Change{Pods: dirty, Core: coreDirty, FS: fsDirty}
		for _, fn := range s.chSubs {
			fn(ch)
		}
	}
}

// NetLoad returns the current network load in pod.
func (s *State) NetLoad(pod int) float64 { return s.podNet[pod] }

// CoreLoad returns the current inter-pod (core link) load.
func (s *State) CoreLoad() float64 { return s.core }

// FSLoad returns the current filesystem load.
func (s *State) FSLoad() float64 { return s.fs }

// congestionThreshold is the normalized load beyond which contention
// begins to hurt: links and OSTs have headroom below it.
const congestionThreshold = 0.65

// Overload maps a load level to a contention factor in [0, +inf): zero at
// or below the congestion threshold, 1.0 at nominal capacity, growing
// quadratically beyond. The convexity makes badly congested periods
// clearly worse than mildly busy ones, which is what gives the paper's
// run-time distributions their long right tails.
func Overload(load float64) float64 {
	if load <= congestionThreshold {
		return 0
	}
	x := (load - congestionThreshold) / (1 - congestionThreshold)
	return x * x
}

// NetOverload returns the contention factor of pod's network: Overload
// of its load, read from the factor the last mutation stored.
func (s *State) NetOverload(pod int) float64 { return s.podOv[pod] }

// CoreOverload returns the contention factor of the inter-pod links.
func (s *State) CoreOverload() float64 { return s.coreOv }

// FSOverload returns the contention factor of the filesystem.
func (s *State) FSOverload() float64 { return s.fsOv }

// History returns the recorded load history.
func (s *State) History() *History { return s.hist }

// Epoch is a half-open interval of constant load beginning at T.
type Epoch struct {
	T      float64
	PodNet []float64
	Core   float64
	FS     float64
}

// History is the record of load epochs since the last Prune. Epoch i
// covers [at(i).T, at(i+1).T); the final epoch extends to the present.
//
// The epochs live in a ring whose length is a power of two, and every
// slot's PodNet row is carved from one slab (slot k holds loads
// k*pods to (k+1)*pods of it), so recording an epoch copies into a slot
// and allocates nothing. The ring doubles only when all its slots hold live
// epochs: a history that is pruned on a cadence reaches a fixed size, one
// that is never pruned keeps everything.
type History struct {
	pods int
	ring []Epoch
	head int // ring index of the oldest live epoch
	n    int // live epochs
}

// at returns live epoch i, oldest first.
func (h *History) at(i int) *Epoch { return &h.ring[(h.head+i)&(len(h.ring)-1)] }

func (h *History) append(t float64, podNet []float64, core, fs float64) {
	if h.n > 0 {
		last := h.at(h.n - 1)
		if last.T > t {
			panic(fmt.Sprintf("simnet: history time went backwards: %v after %v", t, last.T))
		}
		if last.T == t {
			// Several mutations at the same instant collapse into one epoch.
			copy(last.PodNet, podNet)
			last.Core, last.FS = core, fs
			return
		}
	}
	if h.n == len(h.ring) {
		h.grow()
	}
	e := h.at(h.n)
	h.n++
	e.T, e.Core, e.FS = t, core, fs
	copy(e.PodNet, podNet)
}

// grow doubles the ring into a fresh slab, oldest epoch first. The old
// slab is left to the collector, so slices WindowInto returned before the
// growth keep their values.
func (h *History) grow() {
	size := max(16, 2*len(h.ring))
	ring := make([]Epoch, size)
	rows := make([]float64, size*h.pods)
	for k := range ring {
		ring[k].PodNet = rows[k*h.pods : (k+1)*h.pods : (k+1)*h.pods]
	}
	for i := 0; i < h.n; i++ {
		old := h.at(i)
		ring[i].T, ring[i].Core, ring[i].FS = old.T, old.Core, old.FS
		copy(ring[i].PodNet, old.PodNet)
	}
	h.ring, h.head = ring, 0
}

// Len returns the number of recorded epochs.
func (h *History) Len() int { return h.n }

// Slice is one piece of a window query: constant load over [T0, T1).
type Slice struct {
	T0, T1 float64
	PodNet []float64
	Core   float64
	FS     float64
}

// WindowInto appends to buf (pass buf[:0] to reuse its backing array, nil
// to allocate) the sequence of constant-load slices covering [t0, t1).
// Requests before the first recorded epoch are clamped to it. The
// returned PodNet slices alias the history's rows: they stay valid until
// the next Prune, after which later mutations may overwrite them, and
// the slice of the newest epoch follows a later mutation at the same
// instant.
func (h *History) WindowInto(t0, t1 float64, buf []Slice) []Slice {
	out := buf
	if t1 <= t0 || h.n == 0 {
		return out
	}
	for i := h.containing(t0); i < h.n; i++ {
		e := h.at(i)
		start := e.T
		if i == 0 || start < t0 {
			// The first epoch also describes all time before it was
			// recorded: the state existed (idle) before any mutation.
			start = t0
		}
		end := t1
		if i+1 < h.n && h.at(i+1).T < t1 {
			end = h.at(i + 1).T
		}
		if end <= start {
			if e.T >= t1 {
				break
			}
			continue
		}
		out = append(out, Slice{T0: start, T1: end, PodNet: e.PodNet, Core: e.Core, FS: e.FS})
		if end == t1 {
			break
		}
	}
	return out
}

// containing returns the index of the epoch containing t: the last one
// that starts at or before t, or the first when t precedes them all.
func (h *History) containing(t float64) int {
	i := sort.Search(h.n, func(i int) bool { return h.at(i).T > t })
	if i > 0 {
		i--
	}
	return i
}

// Prune drops history strictly older than t, keeping the epoch containing
// t so that window queries starting at t still resolve. It releases ring
// slots for reuse and frees nothing; long runs call it on a cadence so
// the ring stops growing.
func (h *History) Prune(t float64) {
	i := h.containing(t)
	h.head = (h.head + i) & (len(h.ring) - 1)
	h.n -= i
}
