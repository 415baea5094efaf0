package serve_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"rush/internal/mlkit"
	"rush/internal/serve"
	"rush/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// conformanceModel trains a small deterministic forest (fixed seed,
// platform-independent math/rand stream) so every transcript byte is
// reproducible.
func conformanceModel(t *testing.T, seed int64) mlkit.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, 60)
	y := make([]int, len(x))
	for i := range x {
		cls := i % 3
		row := make([]float64, 6)
		for f := range row {
			row[f] = float64(cls) + 0.3*rng.Float64()
		}
		x[i], y[i] = row, cls
	}
	m := mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 3, Seed: seed})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return m
}

// conformanceConn is a raw protocol connection that records every
// exchange into a transcript.
type conformanceConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	log  *bytes.Buffer
}

func (c *conformanceConn) comment(name string) { fmt.Fprintf(c.log, "# %s\n", name) }

// roundTrip sends req as one frame and reads one response, recording
// both verbatim. The request line is the codec's encoding, which must be
// json.Marshal's byte for byte, so the golden transcript pins the
// encoder. reqLine overrides the logged line (used to elide a
// multi-kilobyte model blob while still pinning its size).
func (c *conformanceConn) roundTrip(req serve.Request, reqLine string) serve.Response {
	c.t.Helper()
	body, err := serve.AppendRequest(nil, &req)
	if err != nil {
		c.t.Fatal(err)
	}
	if want, err := json.Marshal(&req); err != nil || !bytes.Equal(body, want) {
		c.t.Fatalf("the codec encodes request %d as\n%s\njson.Marshal as\n%s (%v)", req.ID, body, want, err)
	}
	if reqLine == "" {
		reqLine = string(body)
	}
	fmt.Fprintf(c.log, "> %s\n", reqLine)
	if err := serve.WriteFrame(c.bw, &req); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	return c.readResp()
}

// sendRaw writes an arbitrary frame body (malformed payload testing).
func (c *conformanceConn) sendRaw(body []byte) serve.Response {
	c.t.Helper()
	fmt.Fprintf(c.log, "> (raw) %s\n", body)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := c.conn.Write(append(hdr[:], body...)); err != nil {
		c.t.Fatal(err)
	}
	return c.readResp()
}

func (c *conformanceConn) readResp() serve.Response {
	c.t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		c.t.Fatalf("read response header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	body := make([]byte, n)
	if _, err := io.ReadFull(c.br, body); err != nil {
		c.t.Fatalf("read response body: %v", err)
	}
	fmt.Fprintf(c.log, "< %s\n", body)
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		c.t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestWireProtocolConformance pins the protocol's observable behavior as
// a golden transcript: framing, version negotiation, malformed and
// oversized payloads, snapshot-epoch bookkeeping, decision caching,
// injected outage fail-open, and a mid-connection model hot-swap.
// Regenerate with `go test ./internal/serve -run Conformance -update`
// after an intentional protocol change — and bump ProtoVersion if the
// change is not additive.
func TestWireProtocolConformance(t *testing.T) {
	modelA := conformanceModel(t, 1)
	modelB := conformanceModel(t, 2)
	srv, err := serve.NewServer(serve.Config{Model: modelA})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := "unix:" + filepath.Join(t.TempDir(), "conf.sock")
	ln, err := serve.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	raw, err := net.Dial("unix", addr[len("unix:"):])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := &conformanceConn{t: t, conn: raw, br: bufio.NewReader(raw), bw: bufio.NewWriter(raw), log: &bytes.Buffer{}}

	c.comment("ping: liveness, epoch 0 before any ingest")
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 1, Op: serve.OpPing}, ""); resp.Status != serve.StatusOK || resp.Epoch != 0 {
		t.Fatalf("ping: %+v", resp)
	}

	c.comment("version mismatch: rejected, connection survives")
	if resp := c.roundTrip(serve.Request{V: 99, ID: 2, Op: serve.OpPing}, ""); resp.Status != serve.StatusError {
		t.Fatalf("version mismatch accepted: %+v", resp)
	}

	c.comment("unknown op: rejected, connection survives")
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 3, Op: "launch-missiles"}, ""); resp.Status != serve.StatusError {
		t.Fatalf("unknown op accepted: %+v", resp)
	}

	c.comment("malformed JSON frame: rejected, connection survives")
	if resp := c.sendRaw([]byte(`{"v":1,"op":`)); resp.Status != serve.StatusError {
		t.Fatalf("malformed frame accepted: %+v", resp)
	}

	c.comment("counters-only decide before any ingest: every feature missing, fail open")
	resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 4, Op: serve.OpDecide, Now: 10, Job: 1, App: "AMG", Scope: "q1"}, "")
	if resp.Decision != "fail-open" || resp.Reason != "missing-features" || resp.Missing != 1 {
		t.Fatalf("pre-ingest decide: %+v", resp)
	}

	c.comment("ingest one telemetry window: epoch 1, cache invalidated")
	agg := serve.Request{V: serve.ProtoVersion, ID: 5, Op: serve.OpIngest, Now: 20, Tick: 4,
		Min:  make(serve.FeatureVector, telemetry.NumCounters),
		Mean: make(serve.FeatureVector, telemetry.NumCounters),
		Max:  make(serve.FeatureVector, telemetry.NumCounters)}
	for i := 0; i < telemetry.NumCounters; i++ {
		agg.Min[i], agg.Mean[i], agg.Max[i] = float64(i)*0.25, float64(i)*0.25+0.5, float64(i)*0.25+1
	}
	if resp := c.roundTrip(agg, ""); resp.Status != serve.StatusOK || resp.Epoch != 1 {
		t.Fatalf("ingest: %+v", resp)
	}

	c.comment("ingest with wrong counter count: rejected")
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 6, Op: serve.OpIngest, Now: 21,
		Min: serve.FeatureVector{1}, Mean: serve.FeatureVector{1}, Max: serve.FeatureVector{1}}, ""); resp.Status != serve.StatusError {
		t.Fatalf("short ingest accepted: %+v", resp)
	}

	c.comment("counters-only decide: cache miss, features built from the snapshot (zero probes = NaN probe features, below the missing threshold)")
	first := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 7, Op: serve.OpDecide, Now: 25, Job: 2, App: "AMG", Scope: "q1"}, "")
	if first.Status != serve.StatusOK || first.Cached || first.Epoch != 1 {
		t.Fatalf("first decide: %+v", first)
	}

	c.comment("same scope and class again: served from the decision cache")
	second := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 8, Op: serve.OpDecide, Now: 26, Job: 3, App: "AMG", Scope: "q1"}, "")
	if !second.Cached || second.Decision != first.Decision || second.Class != first.Class {
		t.Fatalf("cached decide: %+v vs first %+v", second, first)
	}

	c.comment("two-phase: check answers evaluate, eval carries the client-built features (base64 of their bits, NaN included)")
	chk := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 9, Op: serve.OpCheck, Now: 30, Job: 4, App: "Kripke", Class: 1, Age: f64(5)}, "")
	if chk.Decision != serve.DecisionEvaluate {
		t.Fatalf("check: %+v", chk)
	}
	ev := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 10, Op: serve.OpEval, Now: 30, Job: 4, App: "Kripke", Class: 1, Age: f64(5),
		Feats: serve.FeatureVector{2.1, 2.2, 2.0, math.NaN(), 2.3, 2.1}}, "")
	if ev.Status != serve.StatusOK || ev.Decision == serve.DecisionEvaluate || ev.Class < 0 {
		t.Fatalf("eval: %+v", ev)
	}

	c.comment("skip-threshold override: decided without consulting the model")
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 11, Op: serve.OpDecide, Now: 31, Job: 5, App: "AMG", Skips: 10}, ""); resp.Decision != "override" {
		t.Fatalf("override: %+v", resp)
	}

	c.comment("injected outage: decisions fail open with a typed reason")
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 12, Op: serve.OpOutage, Down: true}, ""); resp.Status != serve.StatusOK {
		t.Fatalf("outage on: %+v", resp)
	}
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 13, Op: serve.OpDecide, Now: 32, Job: 6, App: "AMG", Scope: "q1"}, ""); resp.Decision != "fail-open" || resp.Reason != "model-down" {
		t.Fatalf("outage decide: %+v", resp)
	}
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 14, Op: serve.OpOutage, Down: false}, ""); resp.Status != serve.StatusOK {
		t.Fatalf("outage off: %+v", resp)
	}

	c.comment("mid-connection model hot-swap: epoch 2, cache invalidated, decisions switch models")
	blob, err := mlkit.SaveModel(modelB)
	if err != nil {
		t.Fatal(err)
	}
	swap := serve.Request{V: serve.ProtoVersion, ID: 15, Op: serve.OpSwap, Model: blob}
	if resp := c.roundTrip(swap, fmt.Sprintf(`{"v":%d,"id":15,"op":"swap","model":<%d-byte blob elided>}`, serve.ProtoVersion, len(blob))); resp.Status != serve.StatusOK || resp.Epoch != 2 {
		t.Fatalf("swap: %+v", resp)
	}
	third := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 16, Op: serve.OpDecide, Now: 35, Job: 7, App: "AMG", Scope: "q1"}, "")
	if third.Cached || third.Epoch != 2 {
		t.Fatalf("post-swap decide must re-evaluate on the new epoch: %+v", third)
	}

	c.comment("stats: counter snapshot (sorted keys, deterministic)")
	if resp := c.roundTrip(serve.Request{V: serve.ProtoVersion, ID: 17, Op: serve.OpStats}, ""); resp.Stats["serve_cache_hits_total"] != 1 {
		t.Fatalf("stats: %+v", resp.Stats)
	}

	c.comment("a version-1 eval, feats a number array: valid JSON, so the version error under its id, and the connection survives")
	v1 := `{"v":1,"id":18,"op":"eval","now":36,"job":8,"app":"Kripke","class":1,"age":5,"feats":[2.1,2.2,2,null,2.3,2.1]}`
	if resp := c.sendRaw([]byte(v1)); resp.ID != 18 || resp.Error != "unsupported protocol version 1 (server speaks 2)" {
		t.Fatalf("v1 eval: %+v", resp)
	}

	c.comment("oversized frame: error response, then the connection is closed")
	fmt.Fprintf(c.log, "> (frame header announcing %d bytes)\n", serve.MaxFrame+1)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], serve.MaxFrame+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	last := c.readResp()
	if last.Status != serve.StatusError {
		t.Fatalf("oversized frame: %+v", last)
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("connection should be closed after an oversized frame, got %v", err)
	}
	fmt.Fprintf(c.log, "! connection closed by server\n")

	goldenPath := filepath.Join("testdata", "conformance.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, c.log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record the golden transcript)", err)
	}
	if !bytes.Equal(want, c.log.Bytes()) {
		t.Fatalf("conformance transcript drifted from golden (re-run with -update only for intentional protocol changes).\n--- golden\n%s\n--- got\n%s", want, c.log.Bytes())
	}
}

func f64(v float64) *float64 { return &v }
