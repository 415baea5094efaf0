package serve_test

import (
	"strings"
	"sync"
	"testing"

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
		srv.Handle(&serve.Request{V: 1, ID: 1, Op: serve.OpDecide, Now: 10, Feats: feats6()}, &resp)
		firstDone <- resp
	}()
	<-model.started // the first decision is now parked inside inference

	var busy serve.Response
	srv.Handle(&serve.Request{V: 1, ID: 2, Op: serve.OpDecide, Now: 11, Feats: feats6()}, &busy)
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
	srv.Handle(&serve.Request{V: 1, ID: 3, Op: serve.OpDecide, Now: 12, Feats: feats6()}, &after)
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
	for i := 0; i < 3; i++ { // sched.NewBreaker trips after 3 failures
		srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: float64(10 + i), Feats: feats6()}, &resp)
		if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonModelDown {
			t.Fatalf("outage decision %d: %+v", i, resp)
		}
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 14, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonBreakerOpen {
		t.Fatalf("breaker should be open: %+v", resp)
	}

	srv.SetOutage(false)
	// Still inside the open window: the breaker answers without the model.
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 100, Feats: feats6()}, &resp)
	if resp.Reason != obs.ReasonBreakerOpen {
		t.Fatalf("open window decision: %+v", resp)
	}
	// Past the open window: half-open probe succeeds and closes it.
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 1000, Feats: feats6()}, &resp)
	if resp.Status != serve.StatusOK || resp.Decision != obs.DecisionStart {
		t.Fatalf("recovery decision: %+v", resp)
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 1001, Feats: feats6()}, &resp)
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
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 150, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionStart || resp.Age != 50 {
		t.Fatalf("fresh decision: %+v", resp)
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 300, Feats: feats6()}, &resp)
	if resp.Decision != obs.DecisionFailOpen || resp.Reason != obs.ReasonStaleTelemetry || resp.Age != 200 {
		t.Fatalf("stale decision: %+v", resp)
	}
}

func ingest(t testing.TB, srv *serve.Server, now float64) {
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
				req := serve.Request{V: 1, Op: serve.OpDecide, Now: float64(i)}
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
		t.Fatalf("lifecycle counters: %v", stats)
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
	srv.Handle(&serve.Request{V: 1, Op: serve.OpPing}, &resp)
	if resp.Status != serve.StatusOK {
		t.Fatalf("ping after the bad request: %+v", resp)
	}
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 20, Feats: feats6()}, &resp)
	if resp.Status != serve.StatusOK || (resp.Decision != obs.DecisionStart && resp.Decision != obs.DecisionVeto) {
		t.Fatalf("decide after the bad request: %+v", resp)
	}
}

// TestSwapRejectsMalformedModel pins that a model blob on which
// inference would index out of range (a stump reading feature 5000 and
// voting for class 9) or never terminate (a tree node that is its own
// child) is refused at the swap, naming the field, and that the old
// model keeps serving. Accepting either kills the process at the next
// uncached decision, in the batcher goroutine.
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
		srv.Handle(&serve.Request{V: 1, Op: serve.OpSwap, Model: []byte(b.blob)}, &resp)
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
		srv.Handle(&serve.Request{V: 1, Op: op, Now: 10, Feats: serve.FeatureVector{1}}, &resp)
		if resp.Status != serve.StatusError || !strings.Contains(resp.Error, "1 entries") {
			t.Fatalf("%s with a 1-entry vector against a 6-feature model: %+v", op, resp)
		}
	}
	if st := srv.Stats(); st["serve_protocol_errors_total"] != 2 || st["serve_decisions_total"] != 0 {
		t.Fatalf("short vectors miscounted: %v", st)
	}
	wide := append(feats6(), 0.5, 0.5)
	srv.Handle(&serve.Request{V: 1, Op: serve.OpDecide, Now: 11, Feats: wide}, &resp)
	if resp.Status != serve.StatusOK {
		t.Fatalf("a wider vector must stay legal: %+v", resp)
	}
	stillServing(t, srv)
}
