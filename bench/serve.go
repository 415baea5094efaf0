package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/obs"
	"rush/internal/serve"
	"rush/internal/telemetry"
)

// serve-wire is the only workload where JSON framing, socket round
// trips, the decision cache and the inference batcher do the work. An
// in-process serve.Server listens on a unix socket; one serve.Client
// plays a fixed request script in a closed loop on one connection. The
// script has writes beside reads (each ingest publishes epoch+1 and
// invalidates every cached decision), so a cache or snapshot change
// that helps hits and hurts invalidation shows. Closed loop with one
// client because generator and server share the single P; an open-loop
// rate sweep with a latency limit needs a host with spare cores.

// serveShape fixes the request script: blocks of 2 full-window ingests
// (one at the block's start, one at its middle), decides counters-only
// decisions over 8 scopes x 3 classes, and pairs check->eval exchanges
// carrying a 282-float feature vector.
type serveShape struct{ blocks, decides, pairs int }

func (s serveShape) requests() int { return s.blocks * (2 + s.decides + 2*s.pairs) }

var (
	// 20 blocks of 1,000 requests: 2 ingests, 698 decides, 150 pairs.
	serveFullShape = serveShape{blocks: 20, decides: 698, pairs: 150}
	// The tests' 500 requests: 2 ingests, 348 decides, 75 pairs.
	serveMiniShape = serveShape{blocks: 1, decides: 348, pairs: 75}
)

const (
	serveScopes        = 8
	serveClasses       = 3
	serveEvalVectors   = 64 // distinct feature vectors the evals cycle through
	serveClockStep     = 0.05
	serveModelRows     = 240
	serveModelRounds   = 150
	serveModelDepth    = 2
	serveMiniModelRnds = 20
)

// Request kinds the traced run reports round trips for.
const (
	kindIngest = iota
	kindDecideHit
	kindDecideMiss
	kindCheck
	kindEval
	numKinds
)

var kindNames = [numKinds]string{"ingest", "decide_hit", "decide_miss", "check", "eval"}

type serveUnit struct {
	model  mlkit.Classifier
	script []serve.Request

	srv    *serve.Server
	client *serve.Client
	sock   string
	served chan error

	// handleDigest is the digest of the script played through
	// Server.Handle in process; every wire repetition must reproduce it.
	handleDigest uint64

	// rtt collects per-kind round trips (seconds) during traced
	// repetitions; nil until the traced run enables it. statsBefore is
	// the server's counters when it did.
	rtt         *[numKinds][]float64
	statsBefore map[string]uint64
}

// genServeModel trains the served model: a depth-2 AdaBoost at the
// deployed 282-feature width on seeded synthetic three-class rows, the
// shape of the repository's gate benchmark model at the deployed round
// count.
func genServeModel(seed int64, rounds int) (mlkit.Classifier, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e27e))
	x := make([][]float64, serveModelRows)
	y := make([]int, serveModelRows)
	for i := range x {
		row := make([]float64, dataset.NumFeatures)
		c := rng.Intn(3)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(c)*float64(j%5)*0.2
		}
		x[i], y[i] = row, c
	}
	m := mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: rounds, Depth: serveModelDepth, Seed: seed, Workers: 1})
	if err := m.Fit(x, y); err != nil {
		return nil, fmt.Errorf("serve-wire: train: %w", err)
	}
	return m, nil
}

// genServeScript builds the request script. Every repetition starts
// with an ingest, so the server state a repetition's decisions depend on
// (snapshot aggregates, cache contents, freshness clock) is rebuilt from
// the script alone and each repetition produces the same responses.
func genServeScript(seed int64, shape serveShape) []serve.Request {
	rng := rand.New(rand.NewSource(seed ^ 0x5c21b7))
	scopes := make([]string, serveScopes)
	for i := range scopes {
		scopes[i] = fmt.Sprintf("partition-%d", i)
	}
	appNames := []string{"Kripke", "AMG", "Laghos", "SWFFT", "PENNANT", "sw4lite", "LBANN"}
	vectors := make([]serve.FeatureVector, serveEvalVectors)
	for i := range vectors {
		v := make(serve.FeatureVector, dataset.NumFeatures)
		c := rng.Intn(3)
		for j := range v {
			v[j] = rng.NormFloat64() + float64(c)*float64(j%5)*0.2
		}
		vectors[i] = v
	}
	window := func() (min, mean, max serve.FeatureVector) {
		min = make(serve.FeatureVector, telemetry.NumCounters)
		mean = make(serve.FeatureVector, telemetry.NumCounters)
		max = make(serve.FeatureVector, telemetry.NumCounters)
		c := float64(rng.Intn(3))
		for i := range mean {
			mean[i] = rng.NormFloat64() + c*float64(i%5)*0.2
			spread := math.Abs(rng.NormFloat64()) * 0.3
			min[i], max[i] = mean[i]-spread, mean[i]+spread
		}
		return min, mean, max
	}

	script := make([]serve.Request, 0, shape.requests())
	now, tick, job := 0.0, int64(0), 0
	add := func(r serve.Request) {
		r.Now = now
		now += serveClockStep
		script = append(script, r)
	}
	for b := 0; b < shape.blocks; b++ {
		// items: true = a check->eval pair, false = a decide; shuffled,
		// with the block's ingests at its start and its middle.
		items := make([]bool, shape.decides+shape.pairs)
		for i := 0; i < shape.pairs; i++ {
			items[i] = true
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		for i, pair := range items {
			if i == 0 || i == len(items)/2 {
				tick++
				min, mean, max := window()
				add(serve.Request{Op: serve.OpIngest, Tick: tick, Min: min, Mean: mean, Max: max})
			}
			job++
			app := appNames[rng.Intn(len(appNames))]
			class := rng.Intn(serveClasses)
			if !pair {
				add(serve.Request{Op: serve.OpDecide, Job: job, App: app, Class: class,
					Scope: scopes[rng.Intn(len(scopes))]})
				continue
			}
			add(serve.Request{Op: serve.OpCheck, Job: job, App: app, Class: class})
			add(serve.Request{Op: serve.OpEval, Job: job, App: app, Class: class,
				Feats: vectors[rng.Intn(len(vectors))]})
		}
	}
	return script
}

func setupServe(seed int64, mini bool) (unit, error) {
	rounds, shape := serveModelRounds, serveFullShape
	if mini {
		rounds, shape = serveMiniModelRnds, serveMiniShape
	}
	model, err := genServeModel(seed, rounds)
	if err != nil {
		return nil, err
	}
	u := &serveUnit{model: model, script: genServeScript(seed, shape)}

	// The in-process reference: the same script through Server.Handle on
	// a server of its own, no wire.
	ref, err := serve.NewServer(serve.Config{Model: model})
	if err != nil {
		return nil, fmt.Errorf("serve-wire: %w", err)
	}
	var why string
	u.handleDigest, why = playHandle(ref, u.script)
	ref.Close()
	if why != "" {
		return nil, fmt.Errorf("serve-wire: in-process reference: %s", why)
	}

	u.srv, err = serve.NewServer(serve.Config{Model: model})
	if err != nil {
		return nil, fmt.Errorf("serve-wire: %w", err)
	}
	// A relative path keeps the socket inside the checkout and under the
	// 108-byte sun_path limit wherever the checkout lives.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		u.srv.Close()
		return nil, fmt.Errorf("serve-wire: %w", err)
	}
	u.sock = filepath.Join(buildDir, fmt.Sprintf("serve-%d.sock", os.Getpid()))
	os.Remove(u.sock)
	ln, err := serve.Listen("unix:" + u.sock)
	if err != nil {
		u.srv.Close()
		return nil, fmt.Errorf("serve-wire: %w", err)
	}
	u.served = make(chan error, 1)
	go func(ln net.Listener) { u.served <- u.srv.Serve(ln) }(ln)
	u.client, err = serve.Dial("unix:" + u.sock)
	if err != nil {
		u.close()
		return nil, fmt.Errorf("serve-wire: %w", err)
	}
	return u, nil
}

// buildDir is where the launcher puts the binary and where the socket
// lives; .gitignore names it.
const buildDir = ".bench_build"

func (u *serveUnit) ops() int { return len(u.script) }

// close stops the client, the server and its accept loop, and waits for
// the loop to return.
func (u *serveUnit) close() {
	if u.client != nil {
		u.client.Close()
		u.client = nil
	}
	if u.srv != nil {
		u.srv.Close()
		if u.served != nil {
			<-u.served
		}
		u.srv = nil
	}
	os.Remove(u.sock)
}

func (u *serveUnit) rep(traced bool) repResult {
	h := uint64(fnvOffset)
	var base uint64
	for i := range u.script {
		req := &u.script[i]
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		resp, err := u.client.Do(req)
		if err != nil {
			return repResult{failed: u.ops(), why: fmt.Sprintf("request %d (%s): %v", i, req.Op, err)}
		}
		if traced && u.rtt != nil {
			k := requestKind(req.Op, resp.Cached)
			u.rtt[k] = append(u.rtt[k], time.Since(t0).Seconds())
		}
		if i == 0 {
			base = resp.Epoch
		}
		if why := checkResponse(req, resp); why != "" {
			return repResult{failed: u.ops(), why: fmt.Sprintf("request %d (%s): %s", i, req.Op, why)}
		}
		h = foldResponse(h, resp, base)
	}
	if h != u.handleDigest {
		return repResult{failed: u.ops(), why: "wire responses differ from the same script through Server.Handle"}
	}
	return repResult{digest: h}
}

func requestKind(op string, cached bool) int {
	switch op {
	case serve.OpIngest:
		return kindIngest
	case serve.OpCheck:
		return kindCheck
	case serve.OpEval:
		return kindEval
	}
	if cached {
		return kindDecideHit
	}
	return kindDecideMiss
}

// checkResponse holds one response to the protocol: status ok, the
// request id echoed, and a decision from the set the operation allows
// on a script with no overrides and no fail-open conditions.
func checkResponse(req *serve.Request, resp *serve.Response) string {
	if resp.Status != serve.StatusOK {
		return fmt.Sprintf("status %q: %s", resp.Status, resp.Error)
	}
	if resp.ID != req.ID {
		return fmt.Sprintf("response id %d for request id %d", resp.ID, req.ID)
	}
	switch req.Op {
	case serve.OpIngest:
		if resp.Decision != "" {
			return fmt.Sprintf("ingest answered decision %q", resp.Decision)
		}
	case serve.OpCheck:
		if resp.Decision != serve.DecisionEvaluate {
			return fmt.Sprintf("check answered %q (%s), want %q", resp.Decision, resp.Reason, serve.DecisionEvaluate)
		}
	default:
		if resp.Decision != obs.DecisionStart && resp.Decision != obs.DecisionVeto {
			return fmt.Sprintf("%s answered %q (%s), want start or veto", req.Op, resp.Decision, resp.Reason)
		}
	}
	return ""
}

// foldResponse adds a response to the repetition digest: everything the
// server decided, with the epoch taken relative to the repetition's
// first response (epochs only ever grow across repetitions).
func foldResponse(h uint64, resp *serve.Response, baseEpoch uint64) uint64 {
	h = foldString(h, resp.Status)
	h = foldString(h, resp.Decision)
	h = foldString(h, resp.Reason)
	cached := uint64(0)
	if resp.Cached {
		cached = 1
	}
	return foldWords(h, uint64(int64(resp.Class)), cached, resp.Epoch-baseEpoch,
		math.Float64bits(resp.Age), math.Float64bits(resp.Missing))
}

// playHandle plays the script through srv.Handle, applying the same
// checks and digest as the wire repetition.
func playHandle(srv *serve.Server, script []serve.Request) (digest uint64, why string) {
	h := uint64(fnvOffset)
	var base uint64
	var resp serve.Response
	for i := range script {
		req := &script[i]
		req.V, req.ID = serve.ProtoVersion, uint64(i+1)
		srv.Handle(req, &resp)
		if i == 0 {
			base = resp.Epoch
		}
		if why := checkResponse(req, &resp); why != "" {
			return 0, fmt.Sprintf("request %d (%s): %s", i, req.Op, why)
		}
		h = foldResponse(h, &resp, base)
	}
	return h, ""
}

// stats asks the server for its counters over the wire.
func (u *serveUnit) stats() (map[string]uint64, error) {
	resp, err := u.client.Do(&serve.Request{Op: serve.OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != serve.StatusOK {
		return nil, fmt.Errorf("stats: %s", resp.Error)
	}
	return resp.Stats, nil
}

// enableTrace starts round-trip collection and notes the server's
// counters, so the traced repetitions' share of them can be taken.
func (u *serveUnit) enableTrace() {
	u.rtt = new([numKinds][]float64)
	for k := range u.rtt {
		u.rtt[k] = make([]float64, 0, len(u.script))
	}
	u.statsBefore, _ = u.stats()
}
