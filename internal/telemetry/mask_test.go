package telemetry

import (
	"math"
	"testing"

	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// hashedMask reads each counter with probability p, drawn from seed.
func hashedMask(seed int64, p float64) (mask [NumCounters]bool) {
	src := sim.NewSource(seed)
	for ci := range mask {
		mask[ci] = src.HashUnit(uint64(ci)) < p
	}
	return mask
}

// sameUnderMask checks masked against full, the same window from a
// sampler without a mask: bit-identical on the counters mask reads, and 0
// on the others.
func sameUnderMask(t *testing.T, label string, mask [NumCounters]bool, masked, full Aggregates) {
	t.Helper()
	for ci, read := range mask {
		for _, agg := range []struct {
			name    string
			got, fo float64
		}{{"Min", masked.Min[ci], full.Min[ci]}, {"Mean", masked.Mean[ci], full.Mean[ci]}, {"Max", masked.Max[ci], full.Max[ci]}} {
			want := agg.fo
			if !read {
				want = 0
			}
			if math.Float64bits(agg.got) != math.Float64bits(want) {
				t.Fatalf("%s: counter %d (read %v) %s = %v, want %v", label, ci, read, agg.name, agg.got, want)
			}
		}
	}
}

// TestMaskedMatchesUnmasked drives a masked and an unmasked sampler over
// one history through load changes and sliding windows, on a job scope
// and on the machine-wide scope: the counters the mask reads aggregate
// bit-identically, the others to 0.
func TestMaskedMatchesUnmasked(t *testing.T) {
	for _, p := range []float64{0, 0.4, 0.9} {
		now := new(float64)
		st, err := simnet.NewState(testTopo(), func() float64 { return *now })
		if err != nil {
			t.Fatal(err)
		}
		full := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
		masked := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
		mask := hashedMask(int64(100*p), p)
		masked.SetCounterMask(mask)
		job := []cluster.NodeID{0, 1, 5, 9, 17, 33, 60}
		all := AllNodes(testTopo())
		rng := sim.NewSource(3).Derive("loads")
		var prev simnet.Contribution
		var got, want Aggregates
		for step := 0; step < 30; step++ {
			st.Remove(prev)
			prev = scrambleLoad(st, rng, step)
			*now += rng.Uniform(5, 90)
			t0 := *now - WindowSeconds
			if step%4 == 3 {
				t0 = *now - rng.Uniform(3, 2*WindowSeconds) // sub-period to longer than the ring
			}
			masked.AggregateRangeInto(st.History(), job, t0, *now, &got)
			full.AggregateRangeInto(st.History(), job, t0, *now, &want)
			sameUnderMask(t, "job scope", mask, got, want)
			masked.AggregateWindowInto(st.History(), all, *now, &got)
			full.AggregateWindowInto(st.History(), all, *now, &want)
			sameUnderMask(t, "machine-wide", mask, got, want)
		}
	}
}

// TestMaskIgnoredUnderFaults checks that a fault model switches the mask
// off, since a missing-feature check counts every counter, and that
// removing it switches the mask back on.
func TestMaskIgnoredUnderFaults(t *testing.T) {
	now := new(float64)
	st, err := simnet.NewState(testTopo(), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	full := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
	masked := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
	mask := hashedMask(7, 0.3)
	masked.SetCounterMask(mask)
	faults := testFaults{src: sim.NewSource(9), dropP: 0.3, freezeP: 0.3, freezeSpan: 5}
	full.SetFaults(faults)
	masked.SetFaults(faults)
	nodes := []cluster.NodeID{2, 3, 4, 40}
	rng := sim.NewSource(4).Derive("loads")
	var prev simnet.Contribution
	for step := 0; step < 12; step++ {
		st.Remove(prev)
		prev = scrambleLoad(st, rng, step)
		*now += rng.Uniform(10, 60)
		want := full.AggregateWindow(st.History(), nodes, *now)
		sameAggregates(t, "faulted direct", masked.AggregateWindow(st.History(), nodes, *now), want)
	}
	full.SetFaults(nil)
	masked.SetFaults(nil)
	want := full.AggregateWindow(st.History(), nodes, *now)
	sameUnderMask(t, "healed direct", mask, masked.AggregateWindow(st.History(), nodes, *now), want)
}

// TestMaskChangeInvalidates checks that a new mask empties the row store:
// after each change, a window answers as a from-scratch recompute under
// the new mask does.
func TestMaskChangeInvalidates(t *testing.T) {
	now := new(float64)
	st, err := simnet.NewState(testTopo(), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(testTopo(), sim.NewSource(11).Derive("telemetry"))
	nodes := []cluster.NodeID{0, 1, 2, 3, 20}
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.9}, FS: 0.4})
	*now = 700
	for i, mask := range [][NumCounters]bool{hashedMask(1, 0.5), hashedMask(2, 0.5), allCounters(), hashedMask(3, 0.1)} {
		s.AggregateWindow(st.History(), nodes, *now) // fill the store under the old mask
		s.SetCounterMask(mask)
		if n := s.cachedRows(); n != 0 {
			t.Fatalf("mask %d: %d rows survive the change", i, n)
		}
		want := aggregateRef(s, st.History(), nodes, *now-WindowSeconds, *now)
		sameAggregates(t, "direct after change", s.AggregateWindow(st.History(), nodes, *now), want)
	}
}
