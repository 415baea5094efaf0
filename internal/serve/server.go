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
	// MaxStaleness is the oldest acceptable telemetry age in seconds
	// (default 90, the gate's default); negative disables the check.
	MaxStaleness float64
	// MaxMissing is the largest tolerable missing-feature fraction
	// (default 0.5, the gate's default); negative disables the check.
	MaxMissing float64
	// MaxInflight bounds concurrently processed decision requests
	// (default 256). Beyond it the server answers StatusBusy without
	// touching the decision pipeline — backpressure, never a queue.
	MaxInflight int
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

// maxCacheEntries bounds the decision cache; on overflow the whole map
// is dropped (entries are one epoch deep, so losing them only costs one
// re-inference per live scope).
const maxCacheEntries = 4096

// maxErrorBytes caps the error text of a response frame. An error may
// echo client input (an unknown op, a model kind), which quoting and JSON
// escaping can grow fivefold; the cap keeps every response frame far
// under MaxFrame, so every request frame is answered.
const maxErrorBytes = 4096

// decideBufs is the buffer a decision reuses: the feature vector a
// counters-only decide builds from the snapshot. A connection keeps one
// for its life, so its decisions allocate none.
type decideBufs struct{ feats []float64 }

// Server is the concurrent gate-prediction daemon: it holds the current
// decision state as an immutable sched.Snapshot behind an atomic pointer
// (decisions run lock-free against it while ingestion builds the next
// one and publishes it with a swap — epoch/RCU style), runs each
// inference on the goroutine that asked for it, caches counters-only
// decisions per scope, and degrades to fail-open ALLOW behind the circuit
// breaker (a sched.Breaker, run on request-carried timestamps, so
// replayed simulated streams and wall-clock clients both work) whenever
// the model path is unavailable. The snapshot carries the model, so a
// hot-swap is one more publish.
type Server struct {
	snap atomic.Pointer[sched.Snapshot]

	pubMu sync.Mutex // serializes snapshot builds (ingest, swap)

	bmu  sync.Mutex     // the pipeline's breaker is mutated on every decision
	pipe sched.Pipeline // thresholds (0 = layer disabled) and breaker

	down       atomic.Bool
	lastIngest atomic.Uint64 // Float64bits of the last ingest Now; NaN = never

	cmu   sync.RWMutex
	cache map[cacheKey]cacheEntry

	sem    chan struct{}
	stopCh chan struct{}
	stop   sync.Once

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
	cInfers    obs.AtomicCounter
}

// NewServer builds a server from cfg, applying defaults and installing
// the initial snapshot (epoch 0, no telemetry). Close stops what Serve
// started.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	s := &Server{
		pipe:   sched.Pipeline{MaxStaleness: 90, MaxMissing: 0.5, Breaker: &sched.Breaker{}},
		cache:  map[cacheKey]cacheEntry{},
		stopCh: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	if cfg.MaxStaleness != 0 {
		s.pipe.MaxStaleness = math.Max(cfg.MaxStaleness, 0)
	}
	if cfg.MaxMissing != 0 {
		s.pipe.MaxMissing = math.Max(cfg.MaxMissing, 0)
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 256
	}
	s.sem = make(chan struct{}, inflight)
	s.lastIngest.Store(math.Float64bits(math.NaN()))
	s.snap.Store(&sched.Snapshot{Model: cfg.Model})
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

// SwapModel atomically installs m as the served model and publishes a
// new snapshot (epoch+1), invalidating all cached decisions. In-flight
// decisions finish on the snapshot they loaded, the old model.
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
// (Eval, then inference), and the decision cache sits between them. The
// breaker mutex is held around the pipeline calls only, never across
// inference, which runs here, on the caller's goroutine, in bufs. The
// cached-decision path (counters-only request with a warm scope) performs
// zero heap allocations (pinned by TestCachedDecisionZeroAllocs).
func (s *Server) decide(req *Request, resp *Response, phase int, bufs *decideBufs) {
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
				// Far-apart clocks overflow to an infinite age, which
				// the response could not carry.
				age = WireAge(now - last)
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
		if bufs.feats == nil {
			bufs.feats = make([]float64, 0, dataset.NumFeatures)
		}
		feats = snap.Features(simnet.ProbeResult{}, apps.Class(req.Class), bufs.feats[:0])
	}
	resp.Age = v.Age // an error answer below still reports the age
	width := 0
	if w, ok := snap.Model.(interface{ NumFeatures() int }); ok {
		width = w.NumFeatures()
	}
	s.bmu.Lock()
	v, err := s.pipe.Eval(now, v.Age, feats, width)
	s.bmu.Unlock()
	if err != nil {
		// A short vector would panic the model; it is the client's error.
		resp.Status = StatusError
		resp.Error = err.Error()
		s.cProtoErrs.Inc()
		return
	}
	if !v.Final() {
		s.cInfers.Inc()
		v = v.Decided(snap.Decide(feats))
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

// Handle processes one request into resp. It is the in-process API the
// connection loop wraps: embedding callers (tests, benchmarks, future
// in-process gates) get the identical pipeline without a socket. resp is
// fully overwritten; on the cached-decision path Handle performs zero
// heap allocations. An inference allocates its buffers per call here,
// where a connection reuses its own.
func (s *Server) Handle(req *Request, resp *Response) {
	var bufs decideBufs
	s.handle(req, resp, &bufs)
}

// handle is Handle on the caller's decision buffers.
func (s *Server) handle(req *Request, resp *Response, bufs *decideBufs) {
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
			// Backpressure: reply BUSY instead of queueing unboundedly
			// (the 429 of this protocol).
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
		s.decide(req, resp, phase, bufs)
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
// deterministic. Every inference is a batch of one, which is what the
// three serve_batch keys report.
func (s *Server) Stats() map[string]uint64 {
	infers := s.cInfers.Value()
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
		"serve_batches_total":            infers,
		"serve_batched_decisions_total":  infers,
		"serve_batch_max_size":           min(infers, 1),
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
// by its own goroutine, which decides its requests in order, inference
// included; connections decide concurrently.
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
// connection survives (frame boundaries are intact), valid JSON with a
// field of the wrong type answered under its id; an oversized length
// prefix gets an error response and a close (the stream cannot be
// resynchronized without reading the oversized body). The connection
// reuses one buffer for the frames it reads and writes, the storage of
// the request it decodes, and its decision buffers.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.lnMu.Lock()
		delete(s.conns, c)
		s.lnMu.Unlock()
	}()
	br := bufio.NewReader(c)
	var (
		req     Request
		resp    Response
		scratch reqScratch
		bufs    decideBufs
		buf     []byte
		err     error
	)
	for {
		buf, err = readRawFrame(br, buf)
		if err == errFrameTooLarge {
			resp = Response{V: ProtoVersion, Status: StatusError, Error: err.Error(), Class: -1, Age: -1, Missing: -1}
			s.cProtoErrs.Inc()
			if frame, err := appendFrame(buf[:0], &resp); err == nil {
				c.Write(frame)
			}
			return
		}
		if err != nil {
			return
		}
		if err := decodeRequest(buf, &req, &scratch); err == nil {
			s.handle(&req, &resp, &bufs)
		} else if mistyped := json.Valid(buf); mistyped && req.V != ProtoVersion {
			s.handle(&req, &resp, &bufs) // another version's body: the version error
		} else {
			resp = Response{V: ProtoVersion, Status: StatusError, Error: "malformed request: " + err.Error(), Class: -1, Age: -1, Missing: -1}
			if mistyped {
				resp.ID = req.ID // a field of the wrong type: the others are decoded
			}
			s.cProtoErrs.Inc()
		}
		if len(resp.Error) > maxErrorBytes {
			resp.Error = resp.Error[:maxErrorBytes]
		}
		if buf, err = appendFrame(buf[:0], &resp); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// Close stops the listener and every open connection, and waits for the
// connection goroutines to return; a decision in flight finishes first.
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
