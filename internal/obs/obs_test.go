package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestTracerEncodesOneJSONObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewBatchedTracer(&buf)
	tr.Emit(&Event{Time: 0, Kind: KindTrial, Experiment: "ADAA", Policy: "RUSH", Seed: 7})
	tr.Emit(&Event{Time: 1.5, Kind: KindSubmit, Job: 3, App: "AMG", Nodes: 16})
	tr.Emit(&Event{Time: 2, Kind: KindGate, Job: 3, App: "AMG",
		Decision: DecisionVeto, Class: 2, Skips: 1, Age: 30, Missing: 0.1})
	tr.Emit(&Event{Time: 3, Kind: KindGate, Job: 4, App: "AMG",
		Decision: DecisionFailOpen, Class: -1, Reason: ReasonStaleTelemetry, Age: 120, Missing: -1})
	tr.Emit(&Event{Time: 4, Kind: KindBreaker, From: "closed", To: "open"})
	tr.Emit(&Event{Time: 5, Kind: KindStart, Job: 3, App: "AMG", Nodes: 16, Wait: 3.5, Skips: 1})
	tr.Emit(&Event{Time: 6, Kind: KindNodeDown, Node: 12, Kills: 1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if _, ok := m["t"]; !ok {
			t.Fatalf("line %d has no sim-time key: %s", i, line)
		}
	}

	// The veto decision must carry its full provenance.
	var gate map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &gate); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"decision", "class", "skips", "age"} {
		if _, ok := gate[key]; !ok {
			t.Fatalf("gate event missing %q: %s", key, lines[2])
		}
	}
	if gate["decision"] != DecisionVeto || gate["class"] != 2.0 {
		t.Fatalf("gate event content wrong: %v", gate)
	}

	// The fail-open decision must carry its reason but not the
	// unmeasured missing fraction.
	var fo map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &fo); err != nil {
		t.Fatal(err)
	}
	if fo["reason"] != ReasonStaleTelemetry {
		t.Fatalf("fail-open reason = %v", fo["reason"])
	}
	if _, ok := fo["missing"]; ok {
		t.Fatalf("unmeasured missing fraction should be omitted: %s", lines[3])
	}
}

func TestTracerDeterministicBytes(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := NewBatchedTracer(&buf)
		for i := 0; i < 50; i++ {
			tr.Emit(&Event{Time: float64(i) * 1.25, Kind: KindSubmit, Job: i, App: "Kripke", Nodes: 16})
			tr.Emit(&Event{Time: float64(i)*1.25 + 0.5, Kind: KindGate, Job: i, App: "Kripke",
				Decision: DecisionStart, Class: 0, Age: 12.5, Missing: 0})
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical event streams must encode to identical bytes")
	}
}

// TestBatchedTracerMatchesPlain pins the batching contract: the tracer
// produces byte-identical output to one flushed after every event, in
// far fewer writes, and only after Flush is the tail guaranteed on the
// writer.
func TestBatchedTracerMatchesPlain(t *testing.T) {
	emit := func(tr *Tracer, each func()) {
		for i := 0; i < 2000; i++ {
			tr.Emit(&Event{Time: float64(i) * 0.5, Kind: KindSubmit, Job: i, App: "AMG", Nodes: 4})
			each()
			tr.Emit(&Event{Time: float64(i)*0.5 + 0.1, Kind: KindFinish, Job: i, App: "AMG", Nodes: 4, Runtime: 12.5})
			each()
		}
	}
	var plain bytes.Buffer
	pw := &countWriter{w: &plain}
	per := NewBatchedTracer(pw)
	emit(per, func() { per.Flush() })
	if pw.n != 4000 {
		t.Fatalf("flushing after every event issued %d writes for 4000 events", pw.n)
	}

	var batched bytes.Buffer
	cw := &countWriter{w: &batched}
	tr := NewBatchedTracer(cw)
	emit(tr, func() {})
	if len(batched.Bytes()) == len(plain.Bytes()) {
		t.Fatal("batched tracer should still be holding a partial batch before Flush")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), batched.Bytes()) {
		t.Fatal("batched and per-event writes must produce identical bytes")
	}
	if cw.n >= 4000 {
		t.Fatalf("batched tracer issued %d writes for 4000 events", cw.n)
	}
}

// TestBatchedTracerErrorSurfacesOnFlush checks a deferred write error is
// sticky and reported by Flush.
func TestBatchedTracerErrorSurfacesOnFlush(t *testing.T) {
	tr := NewBatchedTracer(&failWriter{})
	tr.Emit(&Event{Kind: KindSubmit})
	if err := tr.Flush(); err == nil {
		t.Fatal("flush must surface the write error")
	}
	if tr.Err() == nil {
		t.Fatal("error must be sticky")
	}
}

type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n++
	return c.w.Write(p)
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestTracerStickyError(t *testing.T) {
	w := &failWriter{}
	tr := NewBatchedTracer(w)
	tr.Emit(&Event{Kind: KindSubmit})
	tr.Flush()
	tr.Emit(&Event{Kind: KindSubmit})
	tr.Flush()
	if tr.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if w.n != 1 {
		t.Fatalf("tracer kept writing after an error: %d writes", w.n)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Emit(Event{Kind: KindSubmit}) // must not panic
	if o.Tracing() {
		t.Fatal("nil observer claims to trace")
	}
	if o.Err() != nil || o.Tracer() != nil || o.Metrics() != nil {
		t.Fatal("nil observer accessors must return zero values")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", []float64{1}).Observe(2)
	if r.Counter("x").Value() != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry must be a full no-op")
	}
	if New(nil, nil) != nil {
		t.Fatal("New with no channels must return the disabled (nil) observer")
	}
}

func TestRegistrySnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Inc()
	r.Gauge("peak").Max(3)
	r.Gauge("peak").Max(1) // must not lower the peak
	h := r.Histogram("wait", []float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" || s.Counters[1].Value != 2 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if s.Gauges[0].Value != 3 {
		t.Fatalf("gauge = %+v", s.Gauges)
	}
	hv := s.Histograms[0]
	if hv.Count != 3 || hv.Sum != 119 {
		t.Fatalf("histogram totals = %+v", hv)
	}
	want := []uint64{1, 1, 1}
	for i, c := range hv.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", hv.Counts, want)
		}
	}
	// Boundary: v == edge lands in that edge's bucket.
	h.Observe(10)
	if got := r.Snapshot().Histograms[0].Counts[0]; got != 2 {
		t.Fatalf("edge-value bucket = %d, want 2", got)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := NewRegistry()
	a.Counter("jobs").Add(3)
	a.Gauge("peak").Set(5)
	a.Histogram("wait", []float64{10}).Observe(4)
	b := NewRegistry()
	b.Counter("jobs").Add(2)
	b.Counter("only_b").Inc()
	b.Gauge("peak").Set(9)
	b.Histogram("wait", []float64{10}).Observe(40)

	m := Merge(a.Snapshot(), nil, b.Snapshot())
	byName := map[string]float64{}
	for _, c := range m.Counters {
		byName[c.Name] = c.Value
	}
	if byName["jobs"] != 5 || byName["only_b"] != 1 {
		t.Fatalf("merged counters = %v", byName)
	}
	if m.Gauges[0].Value != 9 {
		t.Fatalf("merged gauge = %+v", m.Gauges)
	}
	h := m.Histograms[0]
	if h.Count != 2 || h.Sum != 44 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}
}
