package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rush/internal/apps"
	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/sched"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// Config assembles a Server. Only Model is required; every other field
// has a production default.
type Config struct {
	// Model is the initial incumbent classifier (required). Load one
	// from a serialized predictor with core.LoadPredictor.
	Model mlkit.Classifier
	// VariationLabels is the veto-label set (default: delay only
	// dataset.LabelVariation, the paper's rule).
	VariationLabels map[int]bool
	// ProbThreshold switches to the probability rule when positive,
	// exactly as sched.RUSH.ProbThreshold does.
	ProbThreshold float64
	// MaxStaleness is the oldest acceptable telemetry age in seconds
	// (default 90, the gate's default); negative disables the check.
	MaxStaleness float64
	// MaxMissing is the largest tolerable missing-feature fraction
	// (default 0.5, the gate's default); negative disables the check.
	MaxMissing float64
	// MaxInflight bounds concurrently processed decision requests
	// (default 256). Beyond it the server answers StatusBusy without
	// touching the decision pipeline — bounded-queue backpressure.
	MaxInflight int
	// BatchWindow is how long the inference batcher waits after the
	// first queued decision to collect more (default 0: greedy — take
	// whatever is already queued, never wait).
	BatchWindow time.Duration
	// Breaker is the predictor circuit breaker backing degraded mode
	// (default sched.NewBreaker()). It runs on request-carried
	// timestamps, so replayed simulated streams and wall-clock clients
	// both work.
	Breaker *sched.Breaker
}

// cacheKey identifies one counters-only decision: a caller-chosen scope
// name and the workload class.
type cacheKey struct {
	scope string
	class int
}

// cacheEntry is one cached verdict, valid only for the snapshot epoch it
// was computed against (tick-based invalidation: every ingest or model
// swap bumps the epoch and thereby invalidates every entry at once).
type cacheEntry struct {
	epoch   uint64
	veto    bool
	class   int
	missing float64
}

// maxBatch bounds one inference batch.
const maxBatch = 64

// maxCacheEntries bounds the decision cache; on overflow the whole map
// is dropped (entries are one epoch deep, so losing them only costs one
// re-inference per live scope).
const maxCacheEntries = 4096

// batchItem is one inference handed to the batcher goroutine.
type batchItem struct {
	snap  *sched.Snapshot
	feats []float64
	veto  bool
	class int
	done  chan struct{}
}

// Server is the concurrent gate-prediction daemon: it holds the current
// decision state as an immutable sched.Snapshot behind an atomic pointer
// (decisions run lock-free against it while ingestion builds the next
// one and publishes it with a swap — epoch/RCU style), batches ensemble
// inference, caches counters-only decisions per scope, and degrades to
// fail-open ALLOW behind the circuit breaker whenever the model path is
// unavailable. The snapshot carries the model, so a hot-swap is one more
// publish: Server implements lifecycle.ModelHost, and a lifecycle
// manager can promote challengers straight into a live server.
type Server struct {
	batchWindow time.Duration

	snap atomic.Pointer[sched.Snapshot]

	pubMu sync.Mutex // serializes snapshot builds (ingest, swap)

	bmu  sync.Mutex     // the pipeline's breaker is mutated on every decision
	pipe sched.Pipeline // thresholds (0 = layer disabled) and breaker

	down       atomic.Bool
	lastIngest atomic.Uint64 // Float64bits of the last ingest Now; NaN = never

	cmu   sync.RWMutex
	cache map[cacheKey]cacheEntry

	sem     chan struct{}
	batchCh chan *batchItem
	stopCh  chan struct{}
	stop    sync.Once

	lnMu  sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	// Serve counters (obs.AtomicCounter: concurrency-safe, nil-safe).
	cRequests  obs.AtomicCounter
	cProtoErrs obs.AtomicCounter
	cDecisions obs.AtomicCounter
	cStarts    obs.AtomicCounter
	cVetoes    obs.AtomicCounter
	cFailOpen  obs.AtomicCounter
	cOverrides obs.AtomicCounter
	cHits      obs.AtomicCounter
	cMisses    obs.AtomicCounter
	cBusy      obs.AtomicCounter
	cIngests   obs.AtomicCounter
	cSwaps     obs.AtomicCounter
	cBatches   obs.AtomicCounter
	cBatchJobs obs.AtomicCounter
	gBatchMax  obs.AtomicGauge
}

// NewServer builds a server from cfg, applying defaults, installing the
// initial snapshot (epoch 0, no telemetry), and starting the inference
// batcher. Callers must Close it to stop the batcher.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	labels := map[int]bool{dataset.LabelVariation: true}
	if cfg.VariationLabels != nil {
		labels = make(map[int]bool, len(cfg.VariationLabels))
		for k, v := range cfg.VariationLabels {
			labels[k] = v
		}
	}
	s := &Server{
		pipe:        sched.Pipeline{MaxStaleness: 90, MaxMissing: 0.5, Breaker: cfg.Breaker},
		batchWindow: cfg.BatchWindow,
		cache:       map[cacheKey]cacheEntry{},
		stopCh:      make(chan struct{}),
		conns:       map[net.Conn]struct{}{},
	}
	if cfg.MaxStaleness != 0 {
		s.pipe.MaxStaleness = math.Max(cfg.MaxStaleness, 0)
	}
	if cfg.MaxMissing != 0 {
		s.pipe.MaxMissing = math.Max(cfg.MaxMissing, 0)
	}
	if s.pipe.Breaker == nil {
		s.pipe.Breaker = sched.NewBreaker()
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 256
	}
	s.sem = make(chan struct{}, inflight)
	s.batchCh = make(chan *batchItem, inflight)
	s.lastIngest.Store(math.Float64bits(math.NaN()))
	s.snap.Store(&sched.Snapshot{
		Model:           cfg.Model,
		VariationLabels: labels,
		ProbThreshold:   cfg.ProbThreshold,
	})
	go s.batcher()
	return s, nil
}

// Snapshot returns the currently published decision snapshot (lock-free).
func (s *Server) Snapshot() *sched.Snapshot { return s.snap.Load() }

// publish builds the next snapshot from a copy of the current one with
// mut applied on top, assigns it the next epoch, and swaps it in. Ingest
// and swap serialize here; readers never wait.
func (s *Server) publish(mut func(next *sched.Snapshot)) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	next := *s.snap.Load()
	next.Epoch++
	mut(&next)
	s.snap.Store(&next)
}

// SwapModel implements lifecycle.ModelHost: it atomically installs m as
// the incumbent and publishes a new snapshot (epoch+1), invalidating all
// cached decisions. In-flight decisions finish on the snapshot they
// loaded — the old model — exactly as lifecycle promotion intends.
func (s *Server) SwapModel(m mlkit.Classifier) {
	s.cSwaps.Inc()
	s.publish(func(next *sched.Snapshot) { next.Model = m })
}

// Ingest publishes one telemetry window (per-counter min/mean/max in
// schema order, cloned into the immutable snapshot) and records now as
// the freshness reference for decisions that carry no client-measured
// age.
func (s *Server) Ingest(now float64, tick int64, agg telemetry.Aggregates) error {
	n := telemetry.NumCounters
	if len(agg.Min) != n || len(agg.Mean) != n || len(agg.Max) != n {
		return fmt.Errorf("serve: ingest aggregates must have %d counters, got %d/%d/%d",
			n, len(agg.Min), len(agg.Mean), len(agg.Max))
	}
	frozen := agg.Clone()
	s.publish(func(next *sched.Snapshot) {
		next.Agg = frozen
		next.Tick = tick
	})
	s.lastIngest.Store(math.Float64bits(now))
	s.cIngests.Inc()
	return nil
}

// SetOutage sets or clears the injected predictor-outage flag.
func (s *Server) SetOutage(down bool) { s.down.Store(down) }

// lastIngestAt returns the Now of the most recent ingest, NaN if none.
func (s *Server) lastIngestAt() float64 {
	return math.Float64frombits(s.lastIngest.Load())
}

// Decision phases: OpDecide runs the whole pipeline, OpCheck stops
// before feature evaluation, OpEval resumes there.
const (
	phaseSingle = iota
	phaseCheck
	phaseEval
)

// decide walks the sched.Pipeline the in-process gate walks, with the
// request's fields for inputs, which is what keeps served decisions
// byte-identical to in-process ones by construction (the differential
// test checks it). The phase selects the halves: check stops after the
// pre-feature half (Admit, Fresh), eval starts at the post-feature half
// (Eval, then inference through the batcher), and the decision cache sits
// between them. The breaker mutex is held around the pipeline calls only,
// never across inference. The cached-decision path (counters-only request
// with a warm scope) performs zero heap allocations (gated by `make
// bench-serve`).
func (s *Server) decide(req *Request, resp *Response, phase int) {
	snap := s.snap.Load()
	resp.Epoch = snap.Epoch
	now := req.Now
	v := sched.NewVerdict("", "")
	if phase == phaseEval {
		if req.Age != nil {
			v.Age = *req.Age
		}
	} else {
		age := -1.0
		if s.pipe.MaxStaleness > 0 {
			if req.Age != nil {
				age = *req.Age
			} else if last := s.lastIngestAt(); !math.IsNaN(last) {
				age = now - last
			}
		}
		s.bmu.Lock()
		if v = s.pipe.Admit(now, req.Skips, req.SkipLimit, req.Down || s.down.Load()); !v.Final() {
			v = s.pipe.Fresh(now, age)
		}
		s.bmu.Unlock()
		if phase == phaseCheck && !v.Final() {
			v.Decision = DecisionEvaluate
		}
	}
	if v.Final() {
		s.answer(resp, v)
		return
	}

	feats := []float64(req.Feats)
	cacheable := feats == nil && req.Scope != ""
	key := cacheKey{scope: req.Scope, class: req.Class}
	if cacheable {
		s.cmu.RLock()
		e, ok := s.cache[key]
		s.cmu.RUnlock()
		if ok && e.epoch == snap.Epoch {
			s.cHits.Inc()
			resp.Cached = true
			v.Missing = e.missing
			s.answer(resp, v.Decided(e.veto, e.class))
			return
		}
		s.cMisses.Inc()
	}
	if feats == nil {
		if len(snap.Agg.Mean) != telemetry.NumCounters {
			// No telemetry window has been ingested: every counter feature
			// is missing, so the decision fails open rather than
			// predicting from nothing.
			s.bmu.Lock()
			v = s.pipe.FailOpen(now, obs.ReasonMissingFeatures, v.Age, 1)
			s.bmu.Unlock()
			s.answer(resp, v)
			return
		}
		feats = snap.Features(simnet.ProbeResult{}, apps.Class(req.Class), make([]float64, 0, dataset.NumFeatures))
	}
	resp.Age = v.Age // an error answer below still reports the age
	s.bmu.Lock()
	v, err := s.pipe.Eval(now, v.Age, feats, snap.Model)
	s.bmu.Unlock()
	if err != nil {
		// A short vector would panic the batcher goroutine; it is the
		// client's error.
		resp.Status = StatusError
		resp.Error = err.Error()
		s.cProtoErrs.Inc()
		return
	}
	if !v.Final() {
		v = v.Decided(s.infer(snap, feats))
		if cacheable {
			s.cmu.Lock()
			if len(s.cache) >= maxCacheEntries {
				s.cache = map[cacheKey]cacheEntry{}
			}
			s.cache[key] = cacheEntry{epoch: snap.Epoch, veto: v.Decision == obs.DecisionVeto, class: v.Class, missing: v.Missing}
			s.cmu.Unlock()
		}
	}
	s.answer(resp, v)
}

// answer writes a verdict into the response and counts it.
func (s *Server) answer(resp *Response, v sched.Verdict) {
	resp.Decision, resp.Reason, resp.Class, resp.Age, resp.Missing = v.Decision, v.Reason, v.Class, v.Age, v.Missing
	switch v.Decision {
	case obs.DecisionOverride:
		s.cOverrides.Inc()
	case obs.DecisionFailOpen:
		s.cFailOpen.Inc()
	case obs.DecisionVeto:
		s.cVetoes.Inc()
	case obs.DecisionStart:
		s.cStarts.Inc()
	}
}

// infer runs one model inference through the batcher so concurrent
// decisions share ensemble batches. If the server is shutting down it
// decides inline (Snapshot.Decide is pure, so deciding twice is safe).
func (s *Server) infer(snap *sched.Snapshot, feats []float64) (veto bool, class int) {
	it := &batchItem{snap: snap, feats: feats, done: make(chan struct{}, 1)}
	select {
	case s.batchCh <- it:
	case <-s.stopCh:
		return snap.Decide(feats, nil)
	}
	select {
	case <-it.done:
		return it.veto, it.class
	case <-s.stopCh:
		return snap.Decide(feats, nil)
	}
}

// batcher is the single inference goroutine: it collects queued
// decisions — greedily, or for BatchWindow after the first — and runs
// them against their snapshots with one reused probability scratch
// buffer. Batch sizes feed the serve_batch metrics.
func (s *Server) batcher() {
	var batch []*batchItem
	var probs []float64
	run := func() {
		for _, it := range batch {
			if n := it.snap.Classes(); n > len(probs) {
				probs = make([]float64, n)
			}
			it.veto, it.class = it.snap.Decide(it.feats, probs)
			it.done <- struct{}{}
		}
		s.cBatches.Inc()
		s.cBatchJobs.Add(uint64(len(batch)))
		s.gBatchMax.Max(uint64(len(batch)))
	}
	for {
		select {
		case it := <-s.batchCh:
			batch = append(batch[:0], it)
			if s.batchWindow > 0 {
				timer := time.NewTimer(s.batchWindow)
			window:
				for len(batch) < maxBatch {
					select {
					case more := <-s.batchCh:
						batch = append(batch, more)
					case <-timer.C:
						break window
					case <-s.stopCh:
						break window
					}
				}
				timer.Stop()
			} else {
			greedy:
				for len(batch) < maxBatch {
					select {
					case more := <-s.batchCh:
						batch = append(batch, more)
					default:
						break greedy
					}
				}
			}
			run()
		case <-s.stopCh:
			// Drain anything already queued so no handler waits forever.
			for {
				select {
				case it := <-s.batchCh:
					batch = append(batch[:0], it)
					run()
				default:
					return
				}
			}
		}
	}
}

// Handle processes one request into resp. It is the in-process API the
// connection loop wraps: embedding callers (tests, benchmarks, future
// in-process gates) get the identical pipeline without a socket. resp is
// fully overwritten; on the cached-decision path Handle performs zero
// heap allocations.
func (s *Server) Handle(req *Request, resp *Response) {
	*resp = Response{V: ProtoVersion, ID: req.ID, Status: StatusOK, Class: -1, Age: -1, Missing: -1}
	s.cRequests.Inc()
	if req.V != ProtoVersion {
		resp.Status = StatusError
		resp.Error = fmt.Sprintf("unsupported protocol version %d (server speaks %d)", req.V, ProtoVersion)
		s.cProtoErrs.Inc()
		return
	}
	switch req.Op {
	case OpPing:
		resp.Epoch = s.snap.Load().Epoch
	case OpStats:
		resp.Epoch = s.snap.Load().Epoch
		resp.Stats = s.Stats()
	case OpOutage:
		s.SetOutage(req.Down)
	case OpIngest:
		if err := s.Ingest(req.Now, req.Tick, telemetry.Aggregates{Min: req.Min, Mean: req.Mean, Max: req.Max}); err != nil {
			resp.Status = StatusError
			resp.Error = err.Error()
			s.cProtoErrs.Inc()
			return
		}
		resp.Epoch = s.snap.Load().Epoch
	case OpSwap:
		model, err := mlkit.LoadModel(req.Model)
		if err != nil {
			resp.Status = StatusError
			resp.Error = err.Error()
			s.cProtoErrs.Inc()
			return
		}
		s.SwapModel(model)
		resp.Epoch = s.snap.Load().Epoch
	case OpDecide, OpCheck, OpEval:
		select {
		case s.sem <- struct{}{}:
		default:
			// Bounded-queue backpressure: reply BUSY instead of queueing
			// unboundedly (the 429 of this protocol).
			resp.Status = StatusBusy
			resp.Error = "too many in-flight decisions"
			s.cBusy.Inc()
			return
		}
		phase := phaseSingle
		switch req.Op {
		case OpCheck:
			phase = phaseCheck
		case OpEval:
			phase = phaseEval
		}
		s.decide(req, resp, phase)
		<-s.sem
		if resp.Status == StatusOK && resp.Decision != DecisionEvaluate {
			s.cDecisions.Inc()
		}
	default:
		resp.Status = StatusError
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
		s.cProtoErrs.Inc()
	}
}

// Stats returns the current counter values. Key order is irrelevant on
// the wire: JSON object keys marshal sorted, so OpStats responses are
// deterministic.
func (s *Server) Stats() map[string]uint64 {
	return map[string]uint64{
		"serve_requests_total":           s.cRequests.Value(),
		"serve_protocol_errors_total":    s.cProtoErrs.Value(),
		"serve_decisions_total":          s.cDecisions.Value(),
		"serve_decision_start_total":     s.cStarts.Value(),
		"serve_decision_veto_total":      s.cVetoes.Value(),
		"serve_decision_fail_open_total": s.cFailOpen.Value(),
		"serve_decision_override_total":  s.cOverrides.Value(),
		"serve_cache_hits_total":         s.cHits.Value(),
		"serve_cache_misses_total":       s.cMisses.Value(),
		"serve_backpressure_drops_total": s.cBusy.Value(),
		"serve_ingests_total":            s.cIngests.Value(),
		"serve_model_swaps_total":        s.cSwaps.Value(),
		"serve_batches_total":            s.cBatches.Value(),
		"serve_batched_decisions_total":  s.cBatchJobs.Value(),
		"serve_batch_max_size":           s.gBatchMax.Value(),
	}
}

// Listen opens the server's listening socket: an address of the form
// "unix:/path" binds a unix domain socket, anything else a TCP address.
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// Serve accepts connections on ln until Close. Each connection is served
// by its own goroutine; requests within one connection are handled in
// order (responses match request order), while inference still batches
// across connections.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stopCh:
				return nil
			default:
				return err
			}
		}
		s.lnMu.Lock()
		s.conns[c] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// handleConn reads frames off one connection until EOF or a fatal
// protocol error. Malformed JSON gets an error response and the
// connection survives (frame boundaries are intact); an oversized length
// prefix gets an error response and a close (the stream cannot be
// resynchronized without reading the oversized body).
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.lnMu.Lock()
		delete(s.conns, c)
		s.lnMu.Unlock()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	var req Request
	var resp Response
	for {
		raw, err := readRawFrame(br)
		if err == errFrameTooLarge {
			resp = Response{V: ProtoVersion, Status: StatusError, Error: err.Error(), Class: -1, Age: -1, Missing: -1}
			s.cProtoErrs.Inc()
			if WriteFrame(bw, &resp) == nil {
				bw.Flush()
			}
			return
		}
		if err != nil {
			return
		}
		req = Request{}
		if err := json.Unmarshal(raw, &req); err != nil {
			resp = Response{V: ProtoVersion, Status: StatusError, Error: "malformed request: " + err.Error(), Class: -1, Age: -1, Missing: -1}
			s.cProtoErrs.Inc()
		} else {
			s.Handle(&req, &resp)
		}
		if err := WriteFrame(bw, &resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops the batcher, the listener, and every open connection.
func (s *Server) Close() error {
	s.stop.Do(func() { close(s.stopCh) })
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}
