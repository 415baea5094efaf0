// Package cluster models the machine RUSH schedules onto: a fat-tree
// cluster divided into pods (the unit of network locality) with a node
// allocator that tracks which nodes are busy.
//
// The reference configuration mirrors LLNL's Quartz: 2,988 dual-socket
// nodes with 36 cores each on a two-level fat tree. The paper's scheduling
// experiments run inside a single 512-node pod; Pod512 builds that
// configuration directly.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NodeID identifies a compute node. IDs are dense, starting at zero.
type NodeID int

// Topology describes the static shape of the machine.
type Topology struct {
	// Nodes is the total node count.
	Nodes int
	// PodSize is the number of nodes per fat-tree pod. Traffic within a
	// pod shares that pod's leaf/aggregation links; the global filesystem
	// is shared machine-wide.
	PodSize int
	// CoresPerNode is used to translate node counts into process counts.
	CoresPerNode int
}

// Quartz returns the full-machine reference topology.
func Quartz() Topology {
	return Topology{Nodes: 2988, PodSize: 192, CoresPerNode: 36}
}

// Pod512 returns the single-pod, 512-node reservation used by the paper's
// scheduling experiments. All nodes share one pod, so one hot spot is
// visible to every job, as on the real reservation.
func Pod512() Topology {
	return Topology{Nodes: 512, PodSize: 512, CoresPerNode: 36}
}

// Synthetic returns an N-node topology of podSize-node pods (the last
// pod may be partial), with Quartz's core count per node. Scale studies
// use it to grow the machine beyond the two reference configurations —
// e.g. Synthetic(4096, 512) is the roadmap's 8-pod stress shape.
func Synthetic(nodes, podSize int) Topology {
	return Topology{Nodes: nodes, PodSize: podSize, CoresPerNode: 36}
}

// Parse resolves a -topo flag value: the named reference topologies
// ("pod512", "quartz") or a synthetic "N,podsize" pair such as
// "4096,512". The error spells out the accepted forms.
func Parse(s string) (Topology, error) {
	switch s {
	case "pod512":
		return Pod512(), nil
	case "quartz":
		return Quartz(), nil
	}
	ns, ps, ok := strings.Cut(s, ",")
	if !ok {
		return Topology{}, fmt.Errorf(`cluster: bad topology %q (want "pod512", "quartz", or "N,podsize")`, s)
	}
	nodes, err1 := strconv.Atoi(ns)
	podSize, err2 := strconv.Atoi(ps)
	if err1 != nil || err2 != nil {
		return Topology{}, fmt.Errorf(`cluster: bad topology %q (want "pod512", "quartz", or "N,podsize")`, s)
	}
	t := Synthetic(nodes, podSize)
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// String renders the topology in the form Parse accepts, naming the
// reference configurations.
func (t Topology) String() string {
	switch t {
	case Pod512():
		return "pod512"
	case Quartz():
		return "quartz"
	}
	return fmt.Sprintf("%d,%d", t.Nodes, t.PodSize)
}

// Validate reports whether the topology is internally consistent.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.PodSize <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: non-positive topology field: %+v", t)
	}
	if t.PodSize > t.Nodes {
		return fmt.Errorf("cluster: pod size %d exceeds node count %d", t.PodSize, t.Nodes)
	}
	return nil
}

// Pods returns the number of pods (the last pod may be partial).
func (t Topology) Pods() int {
	return (t.Nodes + t.PodSize - 1) / t.PodSize
}

// PodOf returns the pod index of node n.
func (t Topology) PodOf(n NodeID) int {
	return int(n) / t.PodSize
}

// podSpan returns the number of nodes in pod p (the last pod may be
// partial).
func (t Topology) podSpan(p int) int {
	span := t.Nodes - p*t.PodSize
	if span > t.PodSize {
		span = t.PodSize
	}
	return span
}

// Allocation is a set of nodes granted to one job. A list an Allocator
// grants is carved from one of the allocator's chunks with its capacity
// equal to its length, so appending to it copies and cannot reach the
// next grant's nodes; the allocator never takes a list back, so it stays
// readable after Free.
type Allocation struct {
	Nodes []NodeID
}

// Pods returns the distinct pods the allocation touches, in ascending
// order.
func (a Allocation) Pods(t Topology) []int {
	seen := map[int]bool{}
	var pods []int
	for _, n := range a.Nodes {
		p := t.PodOf(n)
		if !seen[p] {
			seen[p] = true
			pods = append(pods, p)
		}
	}
	sort.Ints(pods)
	return pods
}

// Allocator hands out nodes to jobs. It is not safe for concurrent use;
// the discrete-event simulator is single-threaded by design.
//
// Nodes may be taken out of service with MarkDown (fault injection);
// down nodes are never handed out, whether or not they are currently
// allocated, until MarkUp returns them.
type Allocator struct {
	topo     Topology
	free     []bool // free[i] == true when node i is not allocated
	down     []bool // down[i] == true when node i is out of service
	used     int    // allocated nodes
	downFree int    // nodes both free and down (unallocatable)
	downAll  int    // all down nodes

	// freeByPod[p] counts nodes in pod p that are free and in service.
	// Maintained incrementally so Alloc is O(pods + n), not O(nodes).
	freeByPod []int
	podOrder  []int    // scratch for Alloc's emptiest-pods-first ordering
	chunk     []NodeID // unused tail of the block Alloc carves node lists from
}

// NewAllocator returns an allocator with every node free and in service.
// It returns an error for an invalid topology.
func NewAllocator(topo Topology) (*Allocator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	free := make([]bool, topo.Nodes)
	for i := range free {
		free[i] = true
	}
	freeByPod := make([]int, topo.Pods())
	for p := range freeByPod {
		freeByPod[p] = topo.podSpan(p)
	}
	return &Allocator{
		topo: topo, free: free, down: make([]bool, topo.Nodes),
		freeByPod: freeByPod, podOrder: make([]int, topo.Pods()),
	}, nil
}

// Topology returns the allocator's topology.
func (a *Allocator) Topology() Topology { return a.topo }

// FreeCount returns the number of nodes currently available to allocate
// (free and in service).
func (a *Allocator) FreeCount() int { return a.topo.Nodes - a.used - a.downFree }

// UsedCount returns the number of currently allocated nodes.
func (a *Allocator) UsedCount() int { return a.used }

// DownCount returns the number of out-of-service nodes.
func (a *Allocator) DownCount() int { return a.downAll }

// Down reports whether node n is out of service.
func (a *Allocator) Down(n NodeID) bool {
	return int(n) >= 0 && int(n) < a.topo.Nodes && a.down[n]
}

// MarkDown takes node n out of service. A free node leaves the
// allocatable pool immediately; an allocated node keeps running (the
// caller decides whether to kill the job) but will not be handed out
// again after it is freed. Marking a node down twice is a no-op.
func (a *Allocator) MarkDown(n NodeID) error {
	if int(n) < 0 || int(n) >= a.topo.Nodes {
		return fmt.Errorf("cluster: mark down of out-of-range node %d", n)
	}
	if a.down[n] {
		return nil
	}
	a.down[n] = true
	a.downAll++
	if a.free[n] {
		a.downFree++
		a.freeByPod[a.topo.PodOf(n)]--
	}
	return nil
}

// MarkUp returns node n to service. Restoring an up node is a no-op.
func (a *Allocator) MarkUp(n NodeID) error {
	if int(n) < 0 || int(n) >= a.topo.Nodes {
		return fmt.Errorf("cluster: mark up of out-of-range node %d", n)
	}
	if !a.down[n] {
		return nil
	}
	a.down[n] = false
	a.downAll--
	if a.free[n] {
		a.downFree--
		a.freeByPod[a.topo.PodOf(n)]++
	}
	return nil
}

// CanAlloc reports whether n nodes are currently available.
func (a *Allocator) CanAlloc(n int) bool {
	return n > 0 && n <= a.FreeCount()
}

// Alloc grants n nodes, preferring to pack an allocation into as few pods
// as possible (pods with the most free nodes first), matching the
// locality-seeking behaviour of real fat-tree schedulers. It returns an
// error when not enough nodes are free.
func (a *Allocator) Alloc(n int) (Allocation, error) {
	if n <= 0 {
		return Allocation{}, fmt.Errorf("cluster: invalid allocation size %d", n)
	}
	if !a.CanAlloc(n) {
		return Allocation{}, fmt.Errorf("cluster: want %d nodes, only %d free", n, a.FreeCount())
	}
	// Fill from the emptiest pods first, using the incrementally
	// maintained per-pod free counts. Insertion sort keeps ties in pod
	// order (the stable order SliceStable produced) without reflection
	// or allocation; pod counts are small.
	freeByPod := a.freeByPod
	order := a.podOrder
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		p := order[i]
		j := i
		for ; j > 0 && freeByPod[order[j-1]] < freeByPod[p]; j-- {
			order[j] = order[j-1]
		}
		order[j] = p
	}

	if len(a.chunk) < n {
		a.chunk = make([]NodeID, max(1024, n))
	}
	nodes := a.chunk[:0:n]
	a.chunk = a.chunk[n:]
	for _, p := range order {
		if len(nodes) == n {
			break
		}
		if freeByPod[p] == 0 {
			continue
		}
		lo := p * a.topo.PodSize
		hi := lo + a.topo.podSpan(p)
		for i := lo; i < hi && len(nodes) < n; i++ {
			if a.free[i] && !a.down[i] {
				a.free[i] = false
				a.used++
				freeByPod[p]--
				nodes = append(nodes, NodeID(i))
			}
		}
	}
	if len(nodes) != n {
		// Unreachable given the CanAlloc guard, but fail loudly if the
		// bookkeeping ever drifts.
		panic(fmt.Sprintf("cluster: allocator bookkeeping drift: wanted %d, got %d", n, len(nodes)))
	}
	return Allocation{Nodes: nodes}, nil
}

// Free returns an allocation's nodes to the pool. Freeing a node that is
// not allocated panics: it means a job was double-freed.
func (a *Allocator) Free(alloc Allocation) {
	for _, n := range alloc.Nodes {
		if n < 0 || int(n) >= a.topo.Nodes {
			panic(fmt.Sprintf("cluster: free of out-of-range node %d", n))
		}
		if a.free[n] {
			panic(fmt.Sprintf("cluster: double free of node %d", n))
		}
		a.free[n] = true
		a.used--
		if a.down[n] {
			a.downFree++ // stays out of the pool until MarkUp
		} else {
			a.freeByPod[a.topo.PodOf(n)]++
		}
	}
}
