package apps

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rush/internal/alloctest"
	"rush/internal/cluster"
	"rush/internal/simnet"
)

func TestDefaultsHaveSevenApps(t *testing.T) {
	defs := Defaults()
	if len(defs) != 7 {
		t.Fatalf("paper uses 7 proxy apps, got %d", len(defs))
	}
	seen := map[string]bool{}
	for _, p := range defs {
		if seen[p.Name] {
			t.Fatalf("duplicate app %q", p.Name)
		}
		seen[p.Name] = true
		if p.Base16 <= 0 || p.Jitter <= 0 || p.NetPerNode <= 0 {
			t.Fatalf("app %q has non-positive parameters: %+v", p.Name, p)
		}
		if p.NetSens < 0 || p.FSSens < 0 {
			t.Fatalf("app %q has negative sensitivity", p.Name)
		}
	}
	for _, want := range []string{"Kripke", "AMG", "Laghos", "SWFFT", "PENNANT", "sw4lite", "LBANN"} {
		if !seen[want] {
			t.Fatalf("missing app %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("Laghos")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Laghos" || p.Class != NetworkIntensive {
		t.Fatalf("wrong profile: %+v", p)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown app should error")
	}
}

// TestByNameAllocatesNothing pins that a lookup reads the table built
// once (workload.Generate asks once per job) and that the table is not
// the caller's: changing a slice Defaults returned changes no lookup.
func TestByNameAllocatesNothing(t *testing.T) {
	var p Profile
	objects, _ := alloctest.Count(3, nil, func() { p, _ = ByName("LBANN") })
	if objects != 0 || p.Name != "LBANN" {
		t.Fatalf("ByName allocated %d objects and returned %q; want 0 and LBANN", objects, p.Name)
	}
	defs := Defaults()
	want := defs[2]
	defs[2].NetSens, defs[2].Name = 99, "changed"
	if got, err := ByName("Laghos"); err != nil || got != want {
		t.Fatalf("after changing a Defaults copy ByName returned %+v, %v; want %+v", got, err, want)
	}
}

// contribution is p's load on alloc in simnet's map form, taken through
// CountPods and LoadsInto as a machine takes it.
func contribution(p Profile, topo cluster.Topology, alloc cluster.Allocation) simnet.Contribution {
	pods, counts := CountPods(topo, alloc, make([]int, topo.Pods()), nil, nil)
	loads := make([]float64, len(pods))
	c := simnet.Contribution{PodNet: map[int]float64{}}
	c.Core, c.FS = p.LoadsInto(topo, pods, counts, loads)
	for i, pod := range pods {
		c.PodNet[pod] = loads[i]
	}
	return c
}

// TestContributionMatchesPerNodeWalk holds the census-built
// contribution to the per-node walk it replaced, bit for bit: each node
// adds its share to its pod's entry in allocation order, and the
// cross-pod fraction is summed over the pods in ascending order.
// Allocations interleave their pods' nodes at random, so the test would
// see a sum that depended on the order the nodes come in.
func TestContributionMatchesPerNodeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, topo := range []cluster.Topology{cluster.Quartz(), cluster.Pod512(), cluster.Synthetic(100, 7)} {
		for trial := 0; trial < 200; trial++ {
			p := Defaults()[trial%7]
			perm := rng.Perm(topo.Nodes)
			alloc := cluster.Allocation{}
			for _, n := range perm[:1+rng.Intn(min(topo.Nodes, 400))] {
				alloc.Nodes = append(alloc.Nodes, cluster.NodeID(n))
			}
			want := simnet.Contribution{PodNet: map[int]float64{}}
			counts := map[int]int{}
			for _, n := range alloc.Nodes {
				want.PodNet[topo.PodOf(n)] += p.NetPerNode / float64(topo.PodSize)
				counts[topo.PodOf(n)]++
			}
			total := float64(len(alloc.Nodes))
			crossFrac := 1.0
			var pods []int
			for pod := range counts {
				pods = append(pods, pod)
			}
			slices.Sort(pods)
			for _, pod := range pods {
				f := float64(counts[pod]) / total
				crossFrac -= f * f
			}
			want.Core = p.NetPerNode * total * crossFrac / float64(topo.Nodes)
			want.FS = p.FSPerNode * total
			if got := contribution(p, topo, alloc); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: census contribution %+v, per-node walk %+v", topo, trial, got, want)
			}
		}
	}
}

func TestClassOneHot(t *testing.T) {
	cases := []struct {
		c    Class
		want [3]float64
	}{
		{ComputeIntensive, [3]float64{1, 0, 0}},
		{NetworkIntensive, [3]float64{0, 1, 0}},
		{IOIntensive, [3]float64{0, 0, 1}},
	}
	for _, c := range cases {
		if got := c.c.OneHot(); got != c.want {
			t.Errorf("OneHot(%v) = %v, want %v", c.c, got, c.want)
		}
	}
	if ComputeIntensive.String() != "compute" || IOIntensive.String() != "io" {
		t.Fatal("class names wrong")
	}
}

func TestBaseTimeScalingModes(t *testing.T) {
	p, _ := ByName("AMG")
	ref := p.BaseTime(16, ReferenceScale)
	if ref != p.Base16 {
		t.Fatalf("reference time should equal Base16")
	}
	// Reference mode ignores node count.
	if p.BaseTime(32, ReferenceScale) != p.Base16 {
		t.Fatal("reference scaling should not depend on nodes")
	}
	// Strong scaling: more nodes, shorter runs; sub-ideal speedup.
	t32 := p.BaseTime(32, StrongScaling)
	if !(t32 < ref) {
		t.Fatalf("strong scaling to 32 nodes should shrink run time: %v vs %v", t32, ref)
	}
	if t32 < ref/2 {
		t.Fatalf("strong scaling should be sub-ideal: %v vs ideal %v", t32, ref/2)
	}
	t8 := p.BaseTime(8, StrongScaling)
	if !(t8 > ref && t8 < 2*ref) {
		t.Fatalf("strong scaling to 8 nodes out of range: %v", t8)
	}
	// Weak scaling: more nodes, mildly longer runs.
	w32 := p.BaseTime(32, WeakScaling)
	if !(w32 > ref && w32 < 1.5*ref) {
		t.Fatalf("weak scaling to 32 nodes out of range: %v", w32)
	}
	if w8 := p.BaseTime(8, WeakScaling); !(w8 < ref) {
		t.Fatalf("weak scaling to 8 nodes should be a bit faster: %v", w8)
	}
}

func TestBaseTimePanicsOnBadNodes(t *testing.T) {
	p, _ := ByName("Kripke")
	defer func() {
		if recover() == nil {
			t.Fatal("zero nodes should panic")
		}
	}()
	p.BaseTime(0, ReferenceScale)
}

func TestContribution(t *testing.T) {
	topo := cluster.Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
	p, _ := ByName("Laghos")
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 16}}
	c := contribution(p, topo, alloc)
	wantPod0 := 2 * p.NetPerNode / 16
	if math.Abs(c.PodNet[0]-wantPod0) > 1e-12 {
		t.Fatalf("pod 0 contribution = %v, want %v", c.PodNet[0], wantPod0)
	}
	if math.Abs(c.PodNet[1]-p.NetPerNode/16) > 1e-12 {
		t.Fatalf("pod 1 contribution = %v", c.PodNet[1])
	}
	if math.Abs(c.FS-3*p.FSPerNode) > 1e-12 {
		t.Fatalf("fs contribution = %v", c.FS)
	}
}

func TestSlowdownMonotone(t *testing.T) {
	p, _ := ByName("sw4lite")
	if p.Slowdown(0, 0) != 1 {
		t.Fatal("no contention means no slowdown")
	}
	if p.Slowdown(0.5, 0) <= p.Slowdown(0.1, 0) {
		t.Fatal("slowdown must grow with net overload")
	}
	if p.Slowdown(0, 0.5) <= p.Slowdown(0, 0.1) {
		t.Fatal("slowdown must grow with fs overload")
	}
}

func TestVariationProneOrdering(t *testing.T) {
	// The paper observes Laghos, LBANN, sw4lite as most variation prone.
	laghos, _ := ByName("Laghos")
	kripke, _ := ByName("Kripke")
	pennant, _ := ByName("PENNANT")
	if laghos.NetSens <= kripke.NetSens || laghos.NetSens <= pennant.NetSens {
		t.Fatal("Laghos should be more network sensitive than Kripke/PENNANT")
	}
	lbann, _ := ByName("LBANN")
	if lbann.FSSens <= kripke.FSSens {
		t.Fatal("LBANN should be the most filesystem sensitive app")
	}
}

// Property: slowdown is always >= 1 for non-negative overloads, and base
// times are always positive for reasonable node counts.
func TestProfileProperties(t *testing.T) {
	defs := Defaults()
	f := func(appIdx uint8, novRaw, fovRaw uint16, nodesRaw uint8) bool {
		p := defs[int(appIdx)%len(defs)]
		nov := float64(novRaw) / 1000
		fov := float64(fovRaw) / 1000
		if p.Slowdown(nov, fov) < 1 {
			return false
		}
		nodes := int(nodesRaw)%128 + 1
		for _, m := range []ScalingMode{ReferenceScale, WeakScaling, StrongScaling} {
			if p.BaseTime(nodes, m) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != 7 || names[0] != "Kripke" || names[6] != "LBANN" {
		t.Fatalf("names = %v", names)
	}
}

func TestDefaultNoise(t *testing.T) {
	n := DefaultNoise()
	if math.Abs(n.NodeFraction-1.0/16.0) > 1e-12 {
		t.Fatalf("paper uses 1/16 of nodes for noise, got %v", n.NodeFraction)
	}
	if n.MinPhase <= 0 || n.MaxPhase <= n.MinPhase || n.MaxLoad <= 0 {
		t.Fatalf("noise parameters invalid: %+v", n)
	}
}

func TestContributionCoreCrossPod(t *testing.T) {
	topo := cluster.Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
	p, _ := ByName("Laghos")
	// Single-pod allocation: no core traffic.
	single := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
	if c := contribution(p, topo, single); c.Core != 0 {
		t.Fatalf("single-pod core contribution = %v", c.Core)
	}
	// Two pods, split evenly: half of the traffic crosses pods.
	split := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 16, 17}}
	c := contribution(p, topo, split)
	want := p.NetPerNode * 4 * 0.5 / 64
	if math.Abs(c.Core-want) > 1e-12 {
		t.Fatalf("split core contribution = %v, want %v", c.Core, want)
	}
	// More pods -> more crossing traffic.
	quad := cluster.Allocation{Nodes: []cluster.NodeID{0, 16, 32, 48}}
	if q := contribution(p, topo, quad); q.Core <= c.Core {
		t.Fatalf("4-pod core contribution %v should exceed 2-pod %v", q.Core, c.Core)
	}
}

func TestSlowdownCore(t *testing.T) {
	p, _ := ByName("Laghos")
	if p.SlowdownCore(0.2, 0, 0) != p.Slowdown(0.2, 0) {
		t.Fatal("zero core overload must reduce to Slowdown")
	}
	if p.SlowdownCore(0.2, 0.3, 0) <= p.Slowdown(0.2, 0) {
		t.Fatal("core contention must add slowdown")
	}
}
