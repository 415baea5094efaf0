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

// maxNodes bounds Topology.Nodes: about 350 times Quartz's 2,988 nodes
// and 256 times the 4,096-node stress shape, yet small enough that the
// per-node state a simulation allocates up front fits in memory. Without
// it a count such as 9223372036854775807 panics inside the first
// allocation, and 3000000000 was still running a one-trial simulation
// after a minute.
const maxNodes = 1 << 20

// Validate reports whether the topology is internally consistent and
// small enough to simulate.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.PodSize <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: non-positive topology field: %+v", t)
	}
	if t.Nodes > maxNodes {
		return fmt.Errorf("cluster: %d nodes exceeds the limit of %d", t.Nodes, maxNodes)
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

// Allocation is a set of nodes granted to one job. A list is written
// either into a buffer its caller passed to AllocInto, or into a chunk of
// the allocator's own with its capacity equal to its length, so that
// appending to it copies and cannot reach the next grant's nodes. The
// allocator never takes a list back: Free leaves it readable, and it is
// written again only when a holder passes it to a later AllocInto, once
// nothing reads it (a pooling machine.Machine: SpareNodes).
type Allocation struct {
	Nodes []NodeID
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

	// freeByPod[p] counts nodes in pod p that are free and in service.
	// Maintained incrementally so Alloc scans pods, not nodes.
	freeByPod []int
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
		freeByPod: freeByPod,
	}, nil
}

// FreeCount returns the number of nodes currently available to allocate
// (free and in service).
func (a *Allocator) FreeCount() int { return a.topo.Nodes - a.used - a.downFree }

// UsedCount returns the number of currently allocated nodes.
func (a *Allocator) UsedCount() int { return a.used }

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
// error when not enough nodes are free. It is AllocInto without a buffer.
func (a *Allocator) Alloc(n int) (Allocation, error) { return a.AllocInto(n, nil) }

// AllocInto is Alloc writing the node list into buf when buf has the
// capacity for n nodes (the list then keeps buf's capacity), and into
// the allocator's current chunk otherwise. The caller must not pass a
// buffer anything still reads, such as a running job's allocation.
func (a *Allocator) AllocInto(n int, buf []NodeID) (Allocation, error) {
	if n <= 0 {
		return Allocation{}, fmt.Errorf("cluster: invalid allocation size %d", n)
	}
	if !a.CanAlloc(n) {
		return Allocation{}, fmt.Errorf("cluster: want %d nodes, only %d free", n, a.FreeCount())
	}
	nodes := buf[:0]
	if cap(buf) < n {
		if len(a.chunk) < n {
			a.chunk = make([]NodeID, max(1024, n))
		}
		nodes = a.chunk[:0:n]
		a.chunk = a.chunk[n:]
	}
	// Fill from the emptiest pods first: each pod chosen is the one with
	// the most free nodes, the lowest index on ties. A pod is used up
	// before the next is chosen, and its count then reads 0, so the
	// choices are those of a stable sort by free count, descending.
	freeByPod := a.freeByPod
	for len(nodes) < n {
		p := 0
		for q, f := range freeByPod {
			if f > freeByPod[p] {
				p = q
			}
		}
		had := len(nodes)
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
		if len(nodes) == had {
			// Unreachable given the CanAlloc guard, but fail loudly if
			// the bookkeeping ever drifts.
			panic(fmt.Sprintf("cluster: allocator bookkeeping drift: wanted %d, got %d", n, len(nodes)))
		}
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
