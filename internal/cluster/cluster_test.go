package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// downCount returns the number of out-of-service nodes.
func downCount(a *Allocator) int {
	n := 0
	for _, d := range a.down {
		if d {
			n++
		}
	}
	return n
}

func newAlloc(topo Topology) *Allocator {
	a, err := NewAllocator(topo)
	if err != nil {
		panic(err)
	}
	return a
}

// podsOf returns the distinct pods an allocation touches, in ascending
// order.
func podsOf(t Topology, a Allocation) []int {
	seen := map[int]bool{}
	var pods []int
	for _, n := range a.Nodes {
		if p := t.PodOf(n); !seen[p] {
			seen[p] = true
			pods = append(pods, p)
		}
	}
	sort.Ints(pods)
	return pods
}

func TestTopologyValidate(t *testing.T) {
	if err := Quartz().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Pod512().Validate(); err != nil {
		t.Fatal(err)
	}
	if Quartz().Nodes != 2988 || Pod512().Nodes != 512 {
		t.Fatalf("paper machines are 2,988 and 512 nodes, got %d and %d", Quartz().Nodes, Pod512().Nodes)
	}
	bad := []Topology{
		{Nodes: 0, PodSize: 1, CoresPerNode: 1},
		{Nodes: 10, PodSize: 0, CoresPerNode: 1},
		{Nodes: 10, PodSize: 20, CoresPerNode: 1},
		{Nodes: 10, PodSize: 2, CoresPerNode: 0},
		{Nodes: maxNodes + 1, PodSize: 512, CoresPerNode: 36},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("topology %+v should be invalid", b)
		}
	}
	if err := Synthetic(maxNodes, 512).Validate(); err != nil {
		t.Errorf("the largest topology allowed is rejected: %v", err)
	}
}

func TestPodMath(t *testing.T) {
	topo := Topology{Nodes: 100, PodSize: 32, CoresPerNode: 4}
	if got := topo.Pods(); got != 4 {
		t.Fatalf("pods = %d, want 4", got)
	}
	if topo.PodOf(0) != 0 || topo.PodOf(31) != 0 || topo.PodOf(32) != 1 || topo.PodOf(99) != 3 {
		t.Fatal("PodOf mapping wrong")
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newAlloc(Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4})
	alloc, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Nodes) != 16 {
		t.Fatalf("allocated %d nodes", len(alloc.Nodes))
	}
	if a.FreeCount() != 48 || a.UsedCount() != 16 {
		t.Fatalf("counts wrong: free=%d used=%d", a.FreeCount(), a.UsedCount())
	}
	a.Free(alloc)
	if a.FreeCount() != 64 || a.UsedCount() != 0 {
		t.Fatalf("counts after free wrong: free=%d used=%d", a.FreeCount(), a.UsedCount())
	}
}

func TestAllocPacksIntoOnePod(t *testing.T) {
	topo := Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
	a := newAlloc(topo)
	alloc, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if pods := podsOf(topo, alloc); len(pods) != 1 {
		t.Fatalf("16-node alloc should fit one 16-node pod, got pods %v", pods)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := newAlloc(Topology{Nodes: 8, PodSize: 8, CoresPerNode: 1})
	if _, err := a.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("allocation from an empty pool should fail")
	}
	if a.CanAlloc(1) {
		t.Fatal("CanAlloc should be false when pool is empty")
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	a := newAlloc(Pod512())
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) should fail")
	}
	if _, err := a.Alloc(-3); err == nil {
		t.Fatal("Alloc(-3) should fail")
	}
	if _, err := a.Alloc(513); err == nil {
		t.Fatal("oversized alloc should fail")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newAlloc(Pod512())
	alloc, _ := a.Alloc(4)
	a.Free(alloc)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	a.Free(alloc)
}

// Property: any interleaving of allocs and frees never double-books a
// node, and counts stay consistent.
func TestAllocatorNeverDoubleBooks(t *testing.T) {
	f := func(ops []uint8) bool {
		topo := Topology{Nodes: 48, PodSize: 16, CoresPerNode: 4}
		a := newAlloc(topo)
		var live []Allocation
		owned := map[NodeID]bool{}
		for _, op := range ops {
			n := int(op%8) + 1
			if op%2 == 0 && a.CanAlloc(n) {
				alloc, err := a.Alloc(n)
				if err != nil {
					return false
				}
				for _, node := range alloc.Nodes {
					if owned[node] {
						return false // double-booked
					}
					owned[node] = true
				}
				live = append(live, alloc)
			} else if len(live) > 0 {
				alloc := live[0]
				live = live[1:]
				for _, node := range alloc.Nodes {
					delete(owned, node)
				}
				a.Free(alloc)
			}
			if a.UsedCount() != len(owned) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkDownRemovesFreeNodeFromPool(t *testing.T) {
	a := newAlloc(Topology{Nodes: 8, PodSize: 8, CoresPerNode: 1})
	if err := a.MarkDown(3); err != nil {
		t.Fatal(err)
	}
	if a.FreeCount() != 7 || downCount(a) != 1 || !a.Down(3) {
		t.Fatalf("free=%d down=%d", a.FreeCount(), downCount(a))
	}
	alloc, err := a.Alloc(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range alloc.Nodes {
		if n == 3 {
			t.Fatal("allocated a down node")
		}
	}
	if a.CanAlloc(1) {
		t.Fatal("only the down node remains; CanAlloc must be false")
	}
	if err := a.MarkUp(3); err != nil {
		t.Fatal(err)
	}
	if a.FreeCount() != 1 || downCount(a) != 0 {
		t.Fatalf("after MarkUp: free=%d down=%d", a.FreeCount(), downCount(a))
	}
	a.Free(alloc)
}

func TestMarkDownAllocatedNodeStaysOutAfterFree(t *testing.T) {
	a := newAlloc(Topology{Nodes: 4, PodSize: 4, CoresPerNode: 1})
	alloc, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	// Down-but-allocated: the job keeps its node until the caller frees.
	if a.FreeCount() != 0 || a.UsedCount() != 4 {
		t.Fatalf("free=%d used=%d", a.FreeCount(), a.UsedCount())
	}
	a.Free(alloc)
	if a.FreeCount() != 3 {
		t.Fatalf("down node must stay out of the pool: free=%d", a.FreeCount())
	}
	if err := a.MarkUp(2); err != nil {
		t.Fatal(err)
	}
	if a.FreeCount() != 4 {
		t.Fatalf("free=%d after restore", a.FreeCount())
	}
}

func TestMarkDownBounds(t *testing.T) {
	a := newAlloc(Topology{Nodes: 4, PodSize: 4, CoresPerNode: 1})
	if err := a.MarkDown(-1); err == nil {
		t.Fatal("negative node should error")
	}
	if err := a.MarkDown(4); err == nil {
		t.Fatal("out-of-range node should error")
	}
	if err := a.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkDown(1); err != nil {
		t.Fatal("second MarkDown should be a no-op, not an error")
	}
	if downCount(a) != 1 {
		t.Fatalf("down=%d after double mark", downCount(a))
	}
}

func TestNewAllocatorRejectsInvalidTopology(t *testing.T) {
	if _, err := NewAllocator(Topology{Nodes: 0, PodSize: 1, CoresPerNode: 1}); err == nil {
		t.Fatal("invalid topology should be rejected")
	}
}

// TestAllocationsNeverShareMemory pins the carving contract: node lists
// come out with capacity equal to length, so an append on one copies
// instead of writing into the next grant, and a list survives Free and
// the grants that follow it.
func TestAllocationsNeverShareMemory(t *testing.T) {
	a := newAlloc(Topology{Nodes: 4096, PodSize: 192, CoresPerNode: 1})
	first, _ := a.Alloc(3)
	second, _ := a.Alloc(4)
	if cap(first.Nodes) != len(first.Nodes) || cap(second.Nodes) != len(second.Nodes) {
		t.Fatalf("caps %d/%d, lens %d/%d: capacity must equal length",
			cap(first.Nodes), cap(second.Nodes), len(first.Nodes), len(second.Nodes))
	}
	want := append([]NodeID(nil), second.Nodes...)
	_ = append(first.Nodes, 9999)
	if !reflect.DeepEqual(second.Nodes, want) {
		t.Fatalf("append on the first allocation changed the second: %v, want %v", second.Nodes, want)
	}
	kept := append([]NodeID(nil), first.Nodes...)
	a.Free(first)
	// A request larger than what is left of the chunk starts a new one
	// and the small ones after it keep carving: none may land on first.
	for _, n := range []int{2000, 3, 1500, 3} {
		if _, err := a.Alloc(n); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first.Nodes, kept) {
		t.Fatalf("a freed list was overwritten by a later grant: %v, want %v", first.Nodes, kept)
	}
}

func TestAllocationPods(t *testing.T) {
	topo := Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
	alloc := Allocation{Nodes: []NodeID{0, 15, 16, 63}}
	pods := podsOf(topo, alloc)
	want := []int{0, 1, 3}
	if len(pods) != len(want) {
		t.Fatalf("pods = %v", pods)
	}
	for i := range want {
		if pods[i] != want[i] {
			t.Fatalf("pods = %v, want %v", pods, want)
		}
	}
}

// sortedPodOrderAlloc is the node list Alloc granted when it ordered the
// pods by insertion sort on every call: all pods by free count,
// descending, ties in index order, filled in that order. It reads a's
// state and changes nothing.
func sortedPodOrderAlloc(a *Allocator, n int) []NodeID {
	freeByPod := a.freeByPod
	order := make([]int, len(freeByPod))
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
	nodes := []NodeID{}
	for _, p := range order {
		if len(nodes) == n {
			break
		}
		if freeByPod[p] == 0 {
			continue
		}
		lo := p * a.topo.PodSize
		for i := lo; i < lo+a.topo.podSpan(p) && len(nodes) < n; i++ {
			if a.free[i] && !a.down[i] {
				nodes = append(nodes, NodeID(i))
			}
		}
	}
	return nodes
}

// TestAllocMatchesSortedPodOrder differences Alloc's scan for the
// fullest pod against the sort it replaced, over random interleavings
// of grants, frees and node failures on random topologies with a
// partial last pod. Small pods and small requests make equal free counts
// and empty pods common.
func TestAllocMatchesSortedPodOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		podSize := 1 + rng.Intn(8)
		topo := Topology{Nodes: podSize*(2+rng.Intn(15)) - rng.Intn(podSize), PodSize: podSize, CoresPerNode: 1}
		a := newAlloc(topo)
		var live []Allocation
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 5 && a.FreeCount() > 0:
				n := 1 + rng.Intn(min(a.FreeCount(), 2*podSize+1))
				want := sortedPodOrderAlloc(a, n)
				got, err := a.Alloc(n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Nodes, want) {
					t.Fatalf("trial %d op %d: Alloc(%d) = %v, the sorted pod order grants %v", trial, op, n, got.Nodes, want)
				}
				live = append(live, got)
			case k < 8 && len(live) > 0:
				i := rng.Intn(len(live))
				a.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case k == 8:
				a.MarkDown(NodeID(rng.Intn(topo.Nodes)))
			default:
				a.MarkUp(NodeID(rng.Intn(topo.Nodes)))
			}
		}
	}
}

// TestAllocIntoFillsTheCallersBuffer pins where AllocInto writes: into
// the buffer when it holds n nodes, keeping its capacity and leaving the
// allocator's chunk alone, and into the chunk when it is too small.
func TestAllocIntoFillsTheCallersBuffer(t *testing.T) {
	a := newAlloc(Topology{Nodes: 64, PodSize: 16, CoresPerNode: 1})
	buf := make([]NodeID, 8)
	got, err := a.AllocInto(5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Nodes[0] != &buf[0] || len(got.Nodes) != 5 || cap(got.Nodes) != 8 || a.chunk != nil {
		t.Fatalf("AllocInto(5) into an 8-node buffer: len %d cap %d, in the buffer %v, chunk %d",
			len(got.Nodes), cap(got.Nodes), &got.Nodes[0] == &buf[0], len(a.chunk))
	}
	again, err := a.AllocInto(9, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Nodes[0] == &buf[0] || cap(again.Nodes) != 9 {
		t.Fatalf("AllocInto(9) into an 8-node buffer wrote into the buffer or kept a wrong capacity %d", cap(again.Nodes))
	}
}

// TestParseRejectsOversizedTopology: a node count past maxNodes is a
// named error from Parse, not a panic or a hang inside the simulation.
func TestParseRejectsOversizedTopology(t *testing.T) {
	for _, in := range []string{"9223372036854775807,1", "3000000000,512", "1048577,512"} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("Parse(%q) error = %v, want the node limit named", in, err)
		}
	}
}
