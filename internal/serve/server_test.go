package serve_test

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/serve"
	"rush/internal/telemetry"
)

// blockingModel parks every Predict call until released, so tests can
// hold a decision in flight deterministically.
type blockingModel struct {
	started chan struct{}
	release chan struct{}
}

func (m *blockingModel) Fit(x [][]float64, y []int) error { return nil }
func (m *blockingModel) Name() string                     { return "blocking" }
func (m *blockingModel) Predict(sample []float64) int {
	m.started <- struct{}{}
	<-m.release
	return 0
}

var _ mlkit.Classifier = (*blockingModel)(nil)

func feats6() serve.FeatureVector { return serve.FeatureVector{0.1, 0.2, 0.1, 0.15, 0.2, 0.1} }

// TestBackpressureBusy pins the bounded-queue behavior: with one
// in-flight slot occupied, the next decision is answered BUSY without
// touching the pipeline, and the slot frees once the first decision
// completes.
func TestBackpressureBusy(t *testing.T) {
	model := &blockingModel{started: make(chan struct{}, 8), release: make(chan struct{})}
	srv, err := serve.NewServer(serve.Config{Model: model, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	firstDone := make(chan serve.Response, 1)
	go func() {
		var resp serve.Response
		srv.Handle(&serve.Request{V: serve.ProtoVersion, ID: 1, Op: serve.OpDecide, Now: 10, Feats: feats6()}, &resp)
		firstDone <- resp
	}()
	<-model.started // the first decision is now parked inside inference

	var busy serve.Response
	srv.Handle(&serve.Request{V: serve.ProtoVersion, ID: 2, Op: serve.OpDecide, Now: 11, Feats: feats6()}, &busy)
	if busy.Status != serve.StatusBusy {
		t.Fatalf("expected BUSY while the only slot is occupied, got %+v", busy)
	}
	if srv.Stats()["serve_backpressure_drops_total"] != 1 {
		t.Fatalf("backpressure drop not counted: %v", srv.Stats())
	}

	close(model.release)
	first := <-firstDone
	if first.Status != serve.StatusOK || first.Decision != obs.DecisionStart {
		t.Fatalf("first decision: %+v", first)
	}

	var after serve.Response
	srv.Handle(&serve.Request{V: serve.ProtoVersion, ID: 3, Op: serve.OpDecide, Now: 12, Feats: feats6()}, &after)
	if after.Status != serve.StatusOK {
		t.Fatalf("slot did not free after completion: %+v", after)
	}
}

// TestDegradedModeBreakerCycle walks the full degraded-mode contract:
// an outage fails decisions open with a typed reason, repeated failures
// trip the breaker (fail-open without consulting anything), and after
// the open window a recovered model path closes it again.
func TestDegradedModeBreakerCycle(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetOutage(true)

	var resp serve.Response
	for i := 0; i < 3; i++ { // a sched.Breaker trips after 3 failures
		srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: float64(10 + i), Feats: feats6()}, &resp)
		if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonModelDown {
			t.Fatalf("outage decision %d: %+v", i, resp)
		}
	}
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 14, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonBreakerOpen {
		t.Fatalf("breaker should be open: %+v", resp)
	}

	srv.SetOutage(false)
	// Still inside the open window: the breaker answers without the model.
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 100, Feats: feats6()}, &resp)
	if resp.Reason != obs.ReasonBreakerOpen {
		t.Fatalf("open window decision: %+v", resp)
	}
	// Past the open window: half-open probe succeeds and closes it.
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 1000, Feats: feats6()}, &resp)
	if resp.Status != serve.StatusOK || resp.Decision != obs.DecisionStart {
		t.Fatalf("recovery decision: %+v", resp)
	}
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 1001, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionStart {
		t.Fatalf("post-recovery decision: %+v", resp)
	}
}

// TestServerDerivedStaleness pins the server-side freshness clock: with
// no client-measured age, decisions compare the request time against the
// last ingest and fail open once the window exceeds MaxStaleness.
func TestServerDerivedStaleness(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingest(t, srv, 100)

	var resp serve.Response
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 150, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionStart || resp.Age != 50 {
		t.Fatalf("fresh decision: %+v", resp)
	}
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 300, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonStaleTelemetry || resp.Age != 200 {
		t.Fatalf("stale decision: %+v", resp)
	}
}

// TestCachedDecisionZeroAllocs pins the daemon's steady state: a
// counters-only decision answered from the per-scope cache against the
// current snapshot epoch, the path a busy scheduler hits on every pass,
// allocates nothing. The count is a runtime.MemStats delta over 1,000
// calls, so a single allocation in any of them fails it; it is the fewest
// of three, each on a server started and filled afresh (see
// alloctest.Count).
func TestCachedDecisionZeroAllocs(t *testing.T) {
	model := conformanceModel(t, 1)
	req := serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 10, Job: 1, App: "AMG", Scope: "q1"}
	var (
		srv  *serve.Server
		resp serve.Response
	)
	defer func() { srv.Close() }()
	setup := func() {
		if srv != nil {
			srv.Close()
		}
		var err error
		if srv, err = serve.NewServer(serve.Config{Model: model}); err != nil {
			t.Fatal(err)
		}
		ingest(t, srv, 0)
		srv.Handle(&req, &resp) // the miss builds the features and fills the cache
		if resp.Status != serve.StatusOK || resp.Cached {
			t.Fatalf("first decision: %+v", resp)
		}
	}
	uncached := 0
	objects, _ := alloctest.Count(3, setup, func() {
		for i := 0; i < 1000; i++ {
			srv.Handle(&req, &resp)
			if !resp.Cached || resp.Status != serve.StatusOK {
				uncached++
			}
		}
	})
	if uncached != 0 {
		t.Fatalf("%d of 3000 decisions left the cached path; last: %+v", uncached, resp)
	}
	if objects != 0 {
		t.Fatalf("1000 cached decisions allocated %d times; want 0", objects)
	}
}

func ingest(t *testing.T, srv *serve.Server, now float64) {
	t.Helper()
	agg := telemetry.Aggregates{
		Min:  make([]float64, telemetry.NumCounters),
		Mean: make([]float64, telemetry.NumCounters),
		Max:  make([]float64, telemetry.NumCounters),
	}
	for i := range agg.Mean {
		agg.Min[i], agg.Mean[i], agg.Max[i] = 0.1, 0.2, 0.3
	}
	if err := srv.Ingest(now, int64(now), agg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSwapIngestDecide hammers lock-free decisions against
// concurrent snapshot publication (ingest) and model hot-swaps. Run
// under -race by the `make race` CI gate, it pins the RCU contract: no
// torn snapshots, every response a coherent (epoch, decision) pair.
func TestConcurrentSwapIngestDecide(t *testing.T) {
	modelA := conformanceModel(t, 1)
	modelB := conformanceModel(t, 2)
	srv, err := serve.NewServer(serve.Config{Model: modelA})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingest(t, srv, 0)

	const deciders = 6
	const perDecider = 300
	var wg sync.WaitGroup
	for d := 0; d < deciders; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var resp serve.Response
			for i := 0; i < perDecider; i++ {
				req := serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: float64(i)}
				if i%2 == 0 {
					req.Scope = "part-a" // exercise the cache under invalidation
				} else {
					req.Feats = feats6()
				}
				srv.Handle(&req, &resp)
				if resp.Status != serve.StatusOK {
					t.Errorf("decider %d: %+v", d, resp)
					return
				}
				if resp.Decision == obs.DecisionVeto || resp.Decision == obs.DecisionStart {
					if resp.Class < 0 {
						t.Errorf("evaluated decision without a class: %+v", resp)
						return
					}
				}
			}
		}(d)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ingest(t, srv, float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				srv.SwapModel(modelB)
			} else {
				srv.SwapModel(modelA)
			}
		}
	}()
	wg.Wait()

	stats := srv.Stats()
	if stats["serve_model_swaps_total"] != 200 || stats["serve_ingests_total"] != 201 {
		t.Fatalf("swap and ingest counters: %v", stats)
	}
	if srv.Snapshot().Epoch != 401 {
		t.Fatalf("epoch = %d, want 401 (200 swaps + 201 ingests)", srv.Snapshot().Epoch)
	}
	if got := stats["serve_decisions_total"]; got != deciders*perDecider {
		t.Fatalf("decisions = %d, want %d", got, deciders*perDecider)
	}
}

// stillServing asserts the daemon survived a bad request: it answers a
// ping and a well-formed decision.
func stillServing(t *testing.T, srv *serve.Server) {
	t.Helper()
	var resp serve.Response
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpPing}, &resp)
	if resp.Status != serve.StatusOK {
		t.Fatalf("ping after the bad request: %+v", resp)
	}
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 20, Feats: feats6()}, &resp)
	if resp.Status != serve.StatusOK || (resp.Decision != obs.DecisionStart && resp.Decision != obs.DecisionVeto) {
		t.Fatalf("decide after the bad request: %+v", resp)
	}
}

// TestSwapRejectsMalformedModel pins that a model blob on which
// inference would index out of range (a stump reading feature 5000 and
// voting for class 9) or never terminate (a tree node that is its own
// child) is refused at the swap, naming the field, and that the old
// model keeps serving. Accepting either kills the process at the next
// uncached decision.
func TestSwapRejectsMalformedModel(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	blobs := []struct{ field, blob string }{
		{"stumps[0].Feature", `{"kind":"adaboost","adaboost":{"config":{"Depth":1},"classes":[0,1,2],"stumps":[{"Feature":5000,"LeftClass":0,"RightClass":9}],"alphas":[1]}}`},
		{"nodes[0].Left", `{"kind":"tree","tree":{"classes":[0,1],"n_features":6,"nodes":[{"Feature":0,"Left":0,"Right":1},{"Probs":[1,0]}]}}`},
	}
	for _, b := range blobs {
		var resp serve.Response
		srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpSwap, Model: []byte(b.blob)}, &resp)
		if resp.Status != serve.StatusError || !strings.Contains(resp.Error, b.field) {
			t.Fatalf("swap of a model with a bad %s: %+v", b.field, resp)
		}
	}
	if st := srv.Stats(); st["serve_model_swaps_total"] != 0 || st["serve_protocol_errors_total"] != uint64(len(blobs)) {
		t.Fatalf("rejected swaps miscounted: %v", st)
	}
	stillServing(t, srv)
}

// TestShortFeatureVectorIsAnError pins that a decide or eval whose feats
// has fewer entries than the model reads is the client's error, counted
// as a protocol error and not as a decision, while a wider vector stays
// legal. Unchecked, the model indexes past the slice and the panic
// kills the process.
func TestShortFeatureVectorIsAnError(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var resp serve.Response
	for _, op := range []string{serve.OpDecide, serve.OpEval} {
		srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: op, Now: 10, Feats: serve.FeatureVector{1}}, &resp)
		if resp.Status != serve.StatusError || !strings.Contains(resp.Error, "1 entries") {
			t.Fatalf("%s with a 1-entry vector against a 6-feature model: %+v", op, resp)
		}
	}
	if st := srv.Stats(); st["serve_protocol_errors_total"] != 2 || st["serve_decisions_total"] != 0 {
		t.Fatalf("short vectors miscounted: %v", st)
	}
	wide := append(feats6(), 0.5, 0.5)
	srv.Handle(&serve.Request{V: serve.ProtoVersion, Op: serve.OpDecide, Now: 11, Feats: wide}, &resp)
	if resp.Status != serve.StatusOK {
		t.Fatalf("a wider vector must stay legal: %+v", resp)
	}
	stillServing(t, srv)
}

// pipeClient serves one net.Pipe connection with srv's connection loop
// and returns a client on its other end; the loop is stopped with the
// test.
func pipeClient(t *testing.T, srv *serve.Server) *serve.Client {
	t.Helper()
	near, far := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.HandleConn(far)
	}()
	client := serve.NewClient(near)
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return client
}

// counters returns a full telemetry window for an ingest.
func counters() serve.FeatureVector {
	w := make(serve.FeatureVector, telemetry.NumCounters)
	for i := range w {
		w[i] = 0.1 + float64(i)*0.01
	}
	return w
}

// TestWireAllocationBudget pins what one request costs the heap on the
// wire path, client and server together: Client.Do, the codec both ways
// and the connection loop over net.Pipe, for each kind a scheduler sends
// in steady state. What remains is the Response that Do returns and the
// snapshot an ingest publishes with its three cloned aggregates: at most
// 5 per request, and each kind's own count is pinned; the app and scope
// strings come from the connection's name table. An inference runs on the
// connection's goroutine in the connection's buffers and adds nothing. The count is an exact runtime.MemStats delta over 100
// requests of a kind. The runtime's channel bookkeeping allocates now and
// then, so a tenth of an allocation per request is tolerated, but one
// more per request fails.
func TestWireAllocationBudget(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := pipeClient(t, srv)
	feats := make(serve.FeatureVector, dataset.NumFeatures)
	for i := range feats {
		feats[i] = 2 + float64(i%7)*0.01
	}
	age := 3.0
	window := counters()
	for _, k := range []struct {
		name   string
		req    serve.Request
		budget uint64 // allocations per request
	}{
		{"ingest", serve.Request{Op: serve.OpIngest, Now: 100, Tick: 1, Min: window, Mean: window, Max: window}, 5},
		{"decide-cached", serve.Request{Op: serve.OpDecide, Now: 101, App: "AMG", Scope: "q1"}, 1},
		{"decide-unscoped", serve.Request{Op: serve.OpDecide, Now: 101, App: "AMG"}, 1},
		{"check", serve.Request{Op: serve.OpCheck, Now: 101, App: "Kripke", Class: 1, Age: &age}, 1},
		{"eval", serve.Request{Op: serve.OpEval, Now: 101, App: "Kripke", Class: 1, Age: &age, Feats: feats}, 1},
	} {
		const n = 100
		var bad *serve.Response
		do := func() {
			resp, err := client.Do(&k.req)
			if err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			if resp.Status != serve.StatusOK || k.name == "decide-cached" && !resp.Cached {
				bad = resp
			}
		}
		do() // a decide's first request fills the cache; buffers grow
		do()
		bad = nil
		objects, bytes := alloctest.Count(1, nil, func() {
			for i := 0; i < n; i++ {
				do()
			}
		})
		if bad != nil {
			t.Fatalf("%s: %+v", k.name, bad)
		}
		t.Logf("%s: %d allocations, %d bytes over %d requests", k.name, objects, bytes, n)
		if objects > k.budget*n+n/10 {
			t.Errorf("%s: %d requests allocated %d times, budget %d per request", k.name, n, objects, k.budget)
		}
	}
}

// TestInfiniteDerivedAgeIsAnswered pins one response per request when the
// server derives an age JSON cannot carry: clocks 3.4e308 apart make
// now - last infinite. The decide is still answered, with the age clamped
// as WireAge clamps it (stale and failing open when it is +Inf), and the
// connection stays up.
func TestInfiniteDerivedAgeIsAnswered(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := pipeClient(t, srv)
	w := counters()
	for _, c := range []struct{ ingestAt, decideAt, age float64 }{
		{-1.7e308, 1.7e308, math.MaxFloat64},
		{1.7e308, -1.7e308, -math.MaxFloat64},
	} {
		if resp, err := client.Do(&serve.Request{Op: serve.OpIngest, Now: c.ingestAt, Tick: 1, Min: w, Mean: w, Max: w}); err != nil || resp.Status != serve.StatusOK {
			t.Fatalf("ingest at %g: %+v, %v", c.ingestAt, resp, err)
		}
		resp, err := client.Do(&serve.Request{Op: serve.OpDecide, Now: c.decideAt, App: "AMG"})
		if err != nil {
			t.Fatalf("decide at %g after an ingest at %g: %v", c.decideAt, c.ingestAt, err)
		}
		stale := resp.Decision == obs.DecisionFailOpen && resp.Reason == obs.ReasonStaleTelemetry
		if resp.Status != serve.StatusOK || resp.Age != c.age || stale != (c.age > 0) {
			t.Fatalf("decide at %g after an ingest at %g: %+v", c.decideAt, c.ingestAt, resp)
		}
	}
	if resp, err := client.Do(&serve.Request{Op: serve.OpPing}); err != nil || resp.Status != serve.StatusOK {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
}

// TestClientEncodeErrorIsNotSticky pins that a request the client cannot
// encode fails alone: nothing was sent, so the connection stays usable.
func TestClientEncodeErrorIsNotSticky(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := pipeClient(t, srv)
	if _, err := client.Do(&serve.Request{Op: serve.OpDecide, Now: math.NaN()}); err == nil {
		t.Fatal("a request with a NaN time was encoded")
	}
	if err := client.Err(); err != nil {
		t.Fatalf("the encode error stuck to the connection: %v", err)
	}
	if resp, err := client.Do(&serve.Request{Op: serve.OpPing}); err != nil || resp.Status != serve.StatusOK {
		t.Fatalf("ping after the encode error: %+v, %v", resp, err)
	}
}

// recordingModel keeps a copy of the last sample it was asked about.
type recordingModel struct{ seen []float64 }

func (m *recordingModel) Fit(x [][]float64, y []int) error { return nil }
func (m *recordingModel) Name() string                     { return "recording" }
func (m *recordingModel) Predict(sample []float64) int {
	m.seen = append(m.seen[:0], sample...)
	return 0
}

// TestVectorEntriesCrossBitForBit sends an eval through Client and the
// connection loop and compares the vector the model is asked about with
// the one sent, bit for bit: NaN, both infinities, -0, the smallest
// subnormal and the largest float arrive as they left, as they reach the
// in-process gate.
func TestVectorEntriesCrossBitForBit(t *testing.T) {
	model := &recordingModel{}
	srv, err := serve.NewServer(serve.Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := pipeClient(t, srv)
	sent := serve.FeatureVector{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, math.MaxFloat64, 0.1}
	resp, err := client.Do(&serve.Request{Op: serve.OpEval, Now: 1, App: "AMG", Feats: sent})
	if err != nil || resp.Status != serve.StatusOK || resp.Class != 0 {
		t.Fatalf("eval: %+v, %v", resp, err)
	}
	if len(model.seen) != len(sent) {
		t.Fatalf("the model saw %d entries, %d were sent", len(model.seen), len(sent))
	}
	for i, v := range sent {
		if got := model.seen[i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("entry %d: sent %v (%#x), the model saw %v (%#x)", i, v, math.Float64bits(v), got, math.Float64bits(got))
		}
	}
}

// TestMistypedBodyIsAnsweredUnderItsID pins the answer to a body that is
// valid JSON but has a field of the wrong type: the error names the
// field, under the id the body carries, so a client matching ids keeps
// its connection. (A body of another version gets the version error
// instead; the conformance transcript pins that.)
func TestMistypedBodyIsAnsweredUnderItsID(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Model: conformanceModel(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	near, far := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.HandleConn(far)
	}()
	defer func() {
		near.Close()
		<-done
	}()
	br := bufio.NewReader(near)
	for _, c := range []struct {
		body  string
		id    uint64
		field string
	}{
		{`{"v":2,"id":7,"op":"eval","feats":[2.1,2.2]}`, 7, "feats"},
		{`{"v":2,"id":8,"op":"ingest","min":"AAAA","mean":"","max":""}`, 8, "min"},
	} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(c.body)))
		if _, err := near.Write(append(frame, c.body...)); err != nil {
			t.Fatal(err)
		}
		var resp serve.Response
		if err := serve.ReadFrame(br, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != c.id || resp.Status != serve.StatusError || resp.Error != "malformed request: cannot decode "+c.field+": wrong type or out of range" {
			t.Errorf("%s: %+v", c.body, resp)
		}
	}
}
