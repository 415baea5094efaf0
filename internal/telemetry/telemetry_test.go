package telemetry

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

func testTopo() cluster.Topology {
	return cluster.Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
}

func TestSchemaMatchesTableI(t *testing.T) {
	cs := Schema()
	if len(cs) != NumCounters || NumCounters != 90 {
		t.Fatalf("schema has %d counters, want 90", len(cs))
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, c := range cs {
		counts[c.Table]++
		key := c.Table + "." + c.Name
		if names[key] {
			t.Fatalf("duplicate counter %s", key)
		}
		names[key] = true
		if c.Noise <= 0 {
			t.Fatalf("counter %s has non-positive noise", key)
		}
		if c.Src != SrcNoise && c.Gain <= 0 {
			t.Fatalf("signal counter %s has non-positive gain", key)
		}
		if c.Src == SrcNoise && c.Gain != 0 {
			t.Fatalf("noise counter %s has a gain", key)
		}
	}
	if counts["sysclassib"] != NumSysclassib {
		t.Fatalf("sysclassib has %d counters, want %d", counts["sysclassib"], NumSysclassib)
	}
	if counts["opa_info"] != NumOpaInfo {
		t.Fatalf("opa_info has %d counters, want %d", counts["opa_info"], NumOpaInfo)
	}
	if counts["lustre_client"] != NumLustreClient {
		t.Fatalf("lustre_client has %d counters, want %d", counts["lustre_client"], NumLustreClient)
	}
	// tables lists the schema's tables in order, each one run of counters.
	var runs []string
	for _, c := range cs {
		if len(runs) == 0 || runs[len(runs)-1] != c.Table {
			runs = append(runs, c.Table)
		}
	}
	if !slices.Equal(runs, tables) {
		t.Fatalf("the schema's table runs are %q, tables says %q", runs, tables)
	}
	// Schema hands out copies: a caller's change reaches neither the
	// samplers' table nor the next caller.
	cs[0].Name = "changed"
	if schema[0].Name == "changed" || Schema()[0].Name == "changed" {
		t.Fatal("a change to Schema's result reached the package's table")
	}
}

func TestSchemaHasCongestionAndNoiseCounters(t *testing.T) {
	var overload, noise int
	for _, c := range Schema() {
		switch c.Src {
		case SrcNetOverload, SrcFSOverload:
			overload++
		case SrcNoise:
			noise++
		}
	}
	if overload < 5 {
		t.Fatalf("want several overload-driven counters, got %d", overload)
	}
	if noise < 10 {
		t.Fatalf("want several pure-noise counters for RFE to eliminate, got %d", noise)
	}
}

func newEnv() (*simnet.State, *Sampler, *float64) {
	now := new(float64)
	st, err := simnet.NewState(testTopo(), func() float64 { return *now })
	if err != nil {
		panic(err)
	}
	sampler := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
	return st, sampler, now
}

func TestAggregatesOrdered(t *testing.T) {
	st, sampler, now := newEnv()
	*now = 100
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.5}, FS: 0.3})
	*now = 700
	nodes := []cluster.NodeID{0, 1, 2, 3}
	agg := sampler.AggregateWindow(st.History(), nodes, *now)
	for i := range agg.Min {
		if !(agg.Min[i] <= agg.Mean[i]+1e-9 && agg.Mean[i] <= agg.Max[i]+1e-9) {
			t.Fatalf("counter %d aggregates out of order: min=%v mean=%v max=%v",
				i, agg.Min[i], agg.Mean[i], agg.Max[i])
		}
		if math.IsInf(agg.Min[i], 0) || math.IsNaN(agg.Mean[i]) {
			t.Fatalf("counter %d has invalid aggregate", i)
		}
	}
}

func TestCountersReflectLoad(t *testing.T) {
	st, sampler, now := newEnv()
	nodes := []cluster.NodeID{0, 1, 2, 3}
	// Calm window.
	*now = 600
	calm := sampler.AggregateWindow(st.History(), nodes, *now)
	// Saturate pod 0's network and the filesystem, then measure again.
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 1.1}, FS: 1.05})
	*now = 1200
	hot := sampler.AggregateWindow(st.History(), nodes, *now)

	for ci, c := range Schema() {
		switch c.Src {
		case SrcNet, SrcNetOverload, SrcFS, SrcFSOverload:
			if hot.Mean[ci] <= calm.Mean[ci] {
				t.Errorf("counter %s.%s should rise under load: calm=%v hot=%v",
					c.Table, c.Name, calm.Mean[ci], hot.Mean[ci])
			}
		}
	}
}

func TestNoiseCountersCarryNoSignal(t *testing.T) {
	st, sampler, now := newEnv()
	nodes := []cluster.NodeID{0, 1}
	*now = 600
	calm := sampler.AggregateWindow(st.History(), nodes, *now)
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 1.2}, FS: 1.2})
	*now = 1200
	hot := sampler.AggregateWindow(st.History(), nodes, *now)
	for ci, c := range Schema() {
		if c.Src != SrcNoise {
			continue
		}
		// Means should stay within the noise band around Base.
		if math.Abs(hot.Mean[ci]-calm.Mean[ci]) > c.Base {
			t.Errorf("noise counter %s.%s moved with load: calm=%v hot=%v",
				c.Table, c.Name, calm.Mean[ci], hot.Mean[ci])
		}
	}
}

func TestJobScopeSeesOnlyItsPod(t *testing.T) {
	st, sampler, now := newEnv()
	// Saturate pod 3 only (nodes 48..63).
	st.Apply(simnet.Contribution{PodNet: map[int]float64{3: 1.2}})
	*now = 600
	quietNodes := []cluster.NodeID{0, 1, 2, 3}
	hotNodes := []cluster.NodeID{48, 49, 50, 51}
	quiet := sampler.AggregateWindow(st.History(), quietNodes, *now)
	hot := sampler.AggregateWindow(st.History(), hotNodes, *now)
	// Find a strongly net-driven counter (port_xmit_data is index 0).
	if hot.Mean[0] <= quiet.Mean[0]*2 {
		t.Fatalf("pod-scoped aggregation leaked: quiet=%v hot=%v", quiet.Mean[0], hot.Mean[0])
	}
}

func TestAggregationDeterministic(t *testing.T) {
	build := func() Aggregates {
		st, sampler, now := newEnv()
		*now = 50
		st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.4}, FS: 0.2})
		*now = 500
		return sampler.AggregateWindow(st.History(), []cluster.NodeID{0, 1, 2}, *now)
	}
	a, b := build(), build()
	for i := range a.Mean {
		if a.Mean[i] != b.Mean[i] || a.Min[i] != b.Min[i] || a.Max[i] != b.Max[i] {
			t.Fatalf("aggregation not deterministic at counter %d", i)
		}
	}
}

func TestOverlappingWindowsShareSamples(t *testing.T) {
	st, sampler, now := newEnv()
	*now = 1000
	nodes := []cluster.NodeID{5}
	// Two windows that both contain tick t=600.
	var a, b Aggregates
	sampler.AggregateRangeInto(st.History(), nodes, 595, 610, &a)
	sampler.AggregateRangeInto(st.History(), nodes, 590, 615, &b)
	// Window a has exactly one tick (600); its mean must appear within
	// window b's [min, max] envelope for every counter.
	for i := range a.Mean {
		if a.Mean[i] < b.Min[i]-1e-9 || a.Mean[i] > b.Max[i]+1e-9 {
			t.Fatalf("tick sample not shared between windows at counter %d", i)
		}
	}
}

func TestShortWindowStillSamples(t *testing.T) {
	st, sampler, now := newEnv()
	*now = 1000
	var agg Aggregates
	sampler.AggregateRangeInto(st.History(), []cluster.NodeID{0}, 602, 603, &agg)
	for i := range agg.Mean {
		if math.IsNaN(agg.Mean[i]) || math.IsInf(agg.Min[i], 0) {
			t.Fatal("sub-period window must still produce samples")
		}
	}
}

func TestEmptyNodeScope(t *testing.T) {
	st, sampler, now := newEnv()
	*now = 1000
	agg := sampler.AggregateWindow(st.History(), nil, *now)
	if len(agg.Mean) != NumCounters {
		t.Fatal("empty scope should still produce full-length vectors")
	}
}

func TestCapNodes(t *testing.T) {
	nodes := AllNodes(cluster.Quartz())
	capped := new(Sampler).capNodesInto(nodes)
	if len(capped) != maxScopeNodes {
		t.Fatalf("capped to %d nodes, want %d", len(capped), maxScopeNodes)
	}
	seen := map[cluster.NodeID]bool{}
	for _, n := range capped {
		if seen[n] {
			t.Fatal("subsample contains duplicates")
		}
		seen[n] = true
	}
	// Subsample must span the machine, not just a prefix.
	if capped[len(capped)-1] < cluster.NodeID(cluster.Quartz().Nodes/2) {
		t.Fatal("subsample should span the whole machine")
	}
	small := []cluster.NodeID{1, 2, 3}
	if got := new(Sampler).capNodesInto(small); len(got) != 3 {
		t.Fatal("small scopes must not be subsampled")
	}
}

// alignedTicks returns the global tick indices whose sample times fall in
// [t0, t1). A window shorter than one period still yields one tick (the
// one containing t0) so feature vectors are never empty.
func alignedTicks(t0, t1 float64) []int64 {
	first, last := tickBounds(t0, t1)
	if last < first {
		return []int64{int64(math.Floor(t0 / SamplePeriod))}
	}
	ticks := make([]int64, 0, last-first+1)
	for k := first; k <= last; k++ {
		ticks = append(ticks, k)
	}
	return ticks
}

func TestAlignedTicksProperty(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		t0 := float64(aRaw) / 3
		t1 := t0 + float64(bRaw)/7 + 0.01
		ticks := alignedTicks(t0, t1)
		if len(ticks) == 0 {
			return false
		}
		for i, k := range ticks {
			tt := float64(k) * SamplePeriod
			if i > 0 && (tt < t0 || tt >= t1) {
				return false // only the fallback first tick may sit outside
			}
			if i > 0 && ticks[i-1] >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllNodes(t *testing.T) {
	nodes := AllNodes(testTopo())
	if len(nodes) != 64 || nodes[0] != 0 || nodes[63] != 63 {
		t.Fatalf("AllNodes wrong: len=%d", len(nodes))
	}
}
