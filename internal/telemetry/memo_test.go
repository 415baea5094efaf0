package telemetry

import (
	"fmt"
	"testing"

	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

// TestWindowMemo walks the window memo through its life and checks, by
// the sampler's counters, which asks it answered, and, against
// aggregateRef, that every answer is right: a repeat of a window is a
// hit that computes no row; a load change at the same instant leaves it
// in place; new bounds, a prune, a fault model, a counter mask and a new
// history each empty it; it holds memoEntries scopes and drops the
// oldest; and neither a window with a node the topology does not have
// nor one longer than a ring ever enters it.
func TestWindowMemo(t *testing.T) {
	st, s, now := newStoreEnv(t)
	st.Apply(simnet.Contribution{PodNet: map[int]float64{0: 0.6, 3: 0.9}, FS: 0.3})
	*now = 900
	scopes := make([][]cluster.NodeID, memoEntries+1)
	for i := range scopes {
		scopes[i] = []cluster.NodeID{cluster.NodeID(20 * i), cluster.NodeID(20*i + 1), cluster.NodeID(20*i + 7)}
	}
	var buf Aggregates
	step := 0
	// ask queries scope at the window ending at t1 and checks whether the
	// memo answered.
	ask := func(t *testing.T, hist *simnet.History, scope []cluster.NodeID, t1 float64, hit bool) {
		t.Helper()
		step++
		before := s.Stats()
		s.AggregateWindowInto(hist, scope, t1, &buf)
		sameAggregates(t, fmt.Sprintf("ask %d", step), buf, aggregateRef(s, hist, scope, t1-WindowSeconds, t1))
		after := s.Stats()
		if after.Windows != before.Windows+1 {
			t.Fatalf("ask %d: %d windows counted, want 1", step, after.Windows-before.Windows)
		}
		if got := after.Reuses - before.Reuses; (got == 1) != hit || got > 1 {
			t.Fatalf("ask %d: %d answers from the memo, want hit=%v", step, got, hit)
		}
		if hit && after.Rows != before.Rows {
			t.Fatalf("ask %d: a memo hit computed %d rows", step, after.Rows-before.Rows)
		}
	}
	hist := st.History()
	ask(t, hist, scopes[0], *now, false)
	if rows := s.Stats().Rows; rows != uint64(len(scopes[0])*WindowTicks) {
		t.Fatalf("a cold window computed %d rows, want %d", rows, len(scopes[0])*WindowTicks)
	}
	ask(t, hist, scopes[0], *now, true)
	ask(t, hist, scopes[1], *now, false)
	ask(t, hist, scopes[0], *now, true)
	ask(t, hist, scopes[1], *now, true)

	st.Apply(simnet.Contribution{FS: 0.5}) // at the same instant: past windows are final
	ask(t, hist, scopes[0], *now, true)

	for _, c := range []struct {
		label string
		empty func()
	}{
		{"new bounds", func() { s.AggregateWindowInto(hist, scopes[1], *now-SamplePeriod, &buf) }},
		{"prune", func() { s.Prune(*now - 2*WindowSeconds) }},
		{"fault model", func() { s.SetFaults(testFaults{src: sim.NewSource(4), dropP: 0.2, freezeSpan: 3}) }},
		{"no fault model", func() { s.SetFaults(nil) }},
		{"counter mask", func() { s.SetCounterMask(hashedMask(9, 0.5)) }},
	} {
		t.Run(c.label, func(t *testing.T) {
			s.AggregateWindowInto(hist, scopes[0], *now, &buf)
			ask(t, hist, scopes[0], *now, true)
			c.empty()
			ask(t, hist, scopes[0], *now, false)
		})
	}

	// A new history: the store and the memo both go.
	s.AggregateWindowInto(hist, scopes[0], *now, &buf)
	other, err := simnet.NewState(storeTopo(), func() float64 { return *now })
	if err != nil {
		t.Fatal(err)
	}
	ask(t, other.History(), scopes[0], *now, false)
	ask(t, other.History(), scopes[0], *now, true)

	// memoEntries scopes fit; one more drops the oldest.
	*now += SamplePeriod
	for _, scope := range scopes {
		ask(t, hist, scope, *now, false)
	}
	for _, scope := range scopes[1:] {
		ask(t, hist, scope, *now, true)
	}
	ask(t, hist, scopes[0], *now, false)

	// A node without a ring keeps its window out of the memo.
	outside := []cluster.NodeID{3, cluster.NodeID(storeTopo().Nodes + 2)}
	ask(t, hist, outside, *now, false)
	ask(t, hist, outside, *now, false)

	// A window longer than a ring overwrites its own first rows, so it
	// never enters the memo either.
	t0 := *now - 2.5*ringTicks*SamplePeriod
	for range 2 {
		before := s.Stats()
		s.AggregateRangeInto(hist, scopes[0], t0, *now, &buf)
		sameAggregates(t, "long window", buf, aggregateRef(s, hist, scopes[0], t0, *now))
		if got := s.Stats().Reuses - before.Reuses; got != 0 {
			t.Fatalf("a window of %v s was answered from the memo", *now-t0)
		}
	}
}
