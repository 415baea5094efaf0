package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"rush/internal/mlkit"
	"rush/internal/telemetry"
)

// FuzzServeFrames feeds arbitrary client bytes to handleConn over a
// net.Pipe, one frame at a time as the bytes' own length prefixes cut
// them. Whatever the bytes, the server must not panic, and:
//   - every complete frame at or under MaxFrame gets one response frame
//     that decodes as a Response with V == ProtoVersion;
//   - a ping sent after the last complete frame is answered next, so no
//     frame was answered twice;
//   - a length prefix over MaxFrame gets one StatusError frame and then a
//     close;
//   - a truncated tail gets no answer, and closing the client ends the
//     connection.
//
// Inputs, seeds included, are cut to maxFramesInput bytes, so the fuzzer
// does not spend its time minimizing long ones; TestLongFrameSeeds
// checks the whole of the seeds longer than that.
func FuzzServeFrames(f *testing.F) {
	model, seeds := frameSeeds(f)
	for _, in := range seeds {
		f.Add(in[:min(len(in), maxFramesInput)])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkFrames(t, model, in[:min(len(in), maxFramesInput)])
	})
}

// maxFramesInput is the longest input FuzzServeFrames sends: room for a
// few small frames.
const maxFramesInput = 512

// TestLongFrameSeeds checks the FuzzServeFrames seeds too long for its
// input cap: a swap, ingests of whole counter vectors, and a frame whose
// echo outgrows MaxFrame.
func TestLongFrameSeeds(t *testing.T) {
	model, seeds := frameSeeds(t)
	long := 0
	for _, in := range seeds {
		if len(in) > maxFramesInput {
			checkFrames(t, model, in)
			long++
		}
	}
	if long == 0 {
		t.Fatal("no seed is longer than the fuzz input cap")
	}
}

// frameSeeds returns FuzzServeFrames' model and seed inputs: one frame of
// each request kind, and frames that have broken the server before.
func frameSeeds(tb testing.TB) (mlkit.Classifier, [][]byte) {
	x := [][]float64{{0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, {0.1, 0, 0.2, 0, 0.1, 0}, {1.1, 1, 0.9, 1, 1.2, 1}, {2.1, 1.9, 2, 2.2, 2, 2}}
	model := mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 2, Seed: 1})
	if err := model.Fit(x, []int{0, 1, 2, 0, 1, 2}); err != nil {
		tb.Fatal(err)
	}
	blob, err := mlkit.SaveModel(model)
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	counters := make(FeatureVector, telemetry.NumCounters)
	age := 5.0
	for _, req := range []Request{
		{V: ProtoVersion, ID: 1, Op: OpPing},
		{V: ProtoVersion, ID: 2, Op: OpDecide, Now: 10, Job: 1, App: "AMG", Scope: "q1"},
		{V: ProtoVersion, ID: 3, Op: OpCheck, Now: 10, Job: 2, App: "Kripke", Class: 1, Age: &age},
		{V: ProtoVersion, ID: 4, Op: OpEval, Now: 10, Job: 2, App: "Kripke", Class: 1, Age: &age, Feats: x[4]},
		{V: ProtoVersion, ID: 5, Op: OpIngest, Now: 20, Tick: 1, Min: counters, Mean: counters, Max: counters},
		{V: ProtoVersion, ID: 6, Op: OpSwap, Model: blob},
		{V: ProtoVersion, ID: 7, Op: OpOutage, Down: true},
		{V: ProtoVersion, ID: 8, Op: OpStats},
	} {
		seeds = append(seeds, frame(tb, req))
	}
	seeds = append(seeds,
		rawFrame([]byte(`{"v":1,"op":`)),               // malformed JSON body
		[]byte{0, 0},                                   // truncated prefix
		binary.BigEndian.AppendUint32(nil, MaxFrame+1), // oversized prefix
		// An unknown op the error message quotes: %q spells each DEL byte
		// in four, JSON escaping adds one, so an unbounded echo outgrows
		// MaxFrame.
		rawFrame(append(append([]byte(`{"v":1,"op":"`), bytes.Repeat([]byte{0x7f}, 250_000)...), '"', '}')),
		// Clocks so far apart that the age the decide derives from the
		// ingest is +Inf, which JSON cannot carry.
		append(frame(tb, Request{V: ProtoVersion, ID: 9, Op: OpIngest, Now: -1.7e308, Tick: 1, Min: counters, Mean: counters, Max: counters}),
			frame(tb, Request{V: ProtoVersion, ID: 10, Op: OpDecide, Now: 1.7e308})...),
		// Version 1's vector form, a number array: valid JSON of another
		// version.
		rawFrame([]byte(`{"v":1,"id":11,"op":"eval","feats":[1,null]}`)),
	)
	return model, seeds
}

// checkFrames is FuzzServeFrames' check of one input.
func checkFrames(t *testing.T, model mlkit.Classifier, in []byte) {
	t.Helper()
	srv, err := NewServer(Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(conn)
	}()
	defer func() {
		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("handleConn did not return after the client closed")
		}
	}()
	cli.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(cli)
	ask := func(b []byte) Response {
		t.Helper()
		if _, err := cli.Write(b); err != nil {
			t.Fatalf("write %d bytes: %v", len(b), err)
		}
		var resp Response
		if err := ReadFrame(br, &resp); err != nil {
			t.Fatalf("no response frame to a %d-byte frame: %v", len(b), err)
		}
		if resp.V != ProtoVersion {
			t.Fatalf("response carries version %d: %+v", resp.V, resp)
		}
		return resp
	}

	for len(in) >= 4 {
		n := binary.BigEndian.Uint32(in)
		if n > MaxFrame || uint64(len(in)-4) < uint64(n) {
			break
		}
		ask(in[:4+n])
		in = in[4+n:]
	}
	const sentinel = 1 << 62
	if resp := ask(frame(t, Request{V: ProtoVersion, ID: sentinel, Op: OpPing})); resp.ID != sentinel || resp.Status != StatusOK {
		t.Fatalf("the ping after the last complete frame was answered with %+v: a frame got more than one response", resp)
	}
	switch {
	case len(in) >= 4 && binary.BigEndian.Uint32(in) > MaxFrame:
		if resp := ask(in[:4]); resp.Status != StatusError {
			t.Fatalf("oversized prefix answered %+v, want a StatusError", resp)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("connection still open after an oversized prefix: %v", err)
		}
	case len(in) > 0:
		if _, err := cli.Write(in); err != nil {
			t.Fatalf("write truncated tail: %v", err)
		}
	}
}

// frame encodes req as one length-prefixed frame.
func frame(tb testing.TB, req Request) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &req); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame length-prefixes an arbitrary body.
func rawFrame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}
