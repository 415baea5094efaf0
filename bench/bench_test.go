package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"rush/internal/cluster"
	"rush/internal/serve"
)

func TestBestDecile(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		want    float64
	}{
		{"one sample", []float64{3}, 3},
		{"ten samples: the fastest one", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1, 10}, 1},
		{"eleven samples: mean of the fastest two", []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 1, 2}, 1.5},
		{"twenty-five samples: mean of the fastest three", func() []float64 {
			s := make([]float64, 25)
			for i := range s {
				s[i] = float64(25 - i)
			}
			return s
		}(), 2},
		{"outliers above do not move it", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}, 1},
	}
	for _, c := range cases {
		if got := bestDecile(c.samples); got != c.want {
			t.Errorf("%s: bestDecile = %v, want %v", c.name, got, c.want)
		}
	}
	if !math.IsNaN(bestDecile(nil)) {
		t.Error("bestDecile of no samples should be NaN")
	}
	in := []float64{3, 1, 2}
	bestDecile(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("bestDecile reordered its input")
	}
}

func TestRepSpread(t *testing.T) {
	// Ten repetitions at 1.0 and ten at 1.3: best decile 1.0, median
	// 1.15, spread 0.15.
	var reps []float64
	for i := 0; i < 10; i++ {
		reps = append(reps, 1.0, 1.3)
	}
	if got := repSpread(reps); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("repSpread = %v, want 0.15", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	cores := cluster.Quartz().CoresPerNode
	a := genSWF(7, 31.5, 1, cores)
	b := genSWF(7, 31.5, 1, cores)
	c := genSWF(8, 31.5, 1, cores)
	if !bytes.Equal(a.raw, b.raw) || a.jobs != b.jobs {
		t.Error("same seed gave different SWF bytes")
	}
	if bytes.Equal(a.raw, c.raw) {
		t.Error("different seeds gave the same SWF bytes")
	}
	if a.jobs == 0 || bytes.Count(a.raw, []byte("\n")) != a.jobs+1 {
		t.Errorf("trace has %d jobs on %d lines", a.jobs, bytes.Count(a.raw, []byte("\n")))
	}

	encode := func(script []serve.Request) []byte {
		raw, err := json.Marshal(script)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	s1, s2, s3 := genServeScript(7, serveMiniShape), genServeScript(7, serveMiniShape), genServeScript(8, serveMiniShape)
	if !bytes.Equal(encode(s1), encode(s2)) {
		t.Error("same seed gave different request scripts")
	}
	if bytes.Equal(encode(s1), encode(s3)) {
		t.Error("different seeds gave the same request script")
	}
	if len(s1) != serveMiniShape.requests() || len(s1) != 500 {
		t.Errorf("mini script has %d requests, want %d", len(s1), serveMiniShape.requests())
	}
	if got := serveFullShape.requests(); got != 20000 {
		t.Errorf("full script has %d requests, want 20000", got)
	}
	if s1[0].Op != serve.OpIngest {
		t.Errorf("script starts with %q, want an ingest so every repetition rebuilds the server state", s1[0].Op)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMiniRunEmitsEveryMetric runs every workload once in miniature (3
// simulated days, 500 requests, one ADAA pair), untraced and traced, and
// checks that each metric -list names for it comes out as a finite
// number under a well-formed name, with no failed operations.
func TestMiniRunEmitsEveryMetric(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is malformed", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(io.Discard, w, runOptions{seed: 7, reps: 1, traced: traced, mini: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalogue has %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, d.name)
					continue
				}
				if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v %q", w.name, d.name, m.Value, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue holds the contract file at the root
// of the repository to the catalogue the program reports from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: %+v, catalogue has %s %s %s %v", kind, i, g, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}

// stubUnit is a unit whose repetition does nothing, for pricing the
// harness's own loop.
type stubUnit struct {
	n      int
	failAt int // repetition index that breaks an invariant; 0 = never
	calls  int
}

func (s *stubUnit) ops() int { return s.n }
func (s *stubUnit) close()   {}
func (s *stubUnit) rep(bool) repResult {
	s.calls++
	if s.calls == s.failAt {
		return repResult{failed: s.n, why: "stub broke"}
	}
	return repResult{digest: 42}
}

// TestLoopBodyDoesNotAllocate pins the harness's share of the timed
// region at zero allocations per repetition, so allocs_per_op and
// bytes_per_op count the program alone.
func TestLoopBodyDoesNotAllocate(t *testing.T) {
	u := &stubUnit{n: 1000}
	l := newLoop()
	allocs := testing.AllocsPerRun(1000, func() {
		if len(l.durs) == cap(l.durs) {
			l.durs = l.durs[:0]
		}
		l.step(u, false)
	})
	if allocs != 0 {
		t.Errorf("timed loop body allocates %v times per repetition", allocs)
	}
}

func TestBrokenRepsCountAsFailedOps(t *testing.T) {
	// A repetition that reports a broken invariant fails all its ops.
	u := &stubUnit{n: 1000, failAt: 3}
	m := measure(u, false, 5, 0)
	if m.failed != 1000 || m.attempted() != 5000 || m.why != "stub broke" {
		t.Errorf("failed=%d attempted=%d why=%q, want 1000 of 5000", m.failed, m.attempted(), m.why)
	}

	// A repetition whose output differs from the run's first fails too.
	l := newLoop()
	l.step(&stubUnit{n: 10}, false)
	l.step(digestUnit{ops_: 10, digest: 43}, false)
	if l.failed != 10 {
		t.Errorf("digest mismatch counted %d failed ops, want 10", l.failed)
	}

	// Replay: the program completing one job fewer than the trace holds.
	ru, err := setupReplay(replayOpenShape)(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if r := ru.rep(false); r.failed != 0 {
		t.Fatalf("intact replay failed: %s", r.why)
	}
	ru.(*replayUnit).trace.jobs++ // the trace now holds a job the replay will not see
	if r := ru.rep(false); r.failed != ru.ops() || r.why == "" {
		t.Errorf("dropped job: failed=%d of %d, why=%q", r.failed, ru.ops(), r.why)
	}

	// Serve: a response carrying another request's id, a refusal, and a
	// decision outside the operation's set.
	req := &serve.Request{ID: 5, Op: serve.OpDecide}
	ok := &serve.Response{ID: 5, Status: serve.StatusOK, Decision: "start"}
	if why := checkResponse(req, ok); why != "" {
		t.Errorf("good response rejected: %s", why)
	}
	for name, resp := range map[string]*serve.Response{
		"wrong id":       {ID: 6, Status: serve.StatusOK, Decision: "start"},
		"busy":           {ID: 5, Status: serve.StatusBusy},
		"fail-open":      {ID: 5, Status: serve.StatusOK, Decision: "fail-open", Reason: "stale-telemetry"},
		"check decision": {ID: 5, Status: serve.StatusOK, Decision: serve.DecisionEvaluate},
	} {
		if checkResponse(req, resp) == "" {
			t.Errorf("%s: response accepted", name)
		}
	}
}

type digestUnit struct {
	ops_   int
	digest uint64
}

func (d digestUnit) ops() int           { return d.ops_ }
func (d digestUnit) close()             {}
func (d digestUnit) rep(bool) repResult { return repResult{digest: d.digest} }
