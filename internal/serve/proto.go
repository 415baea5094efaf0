package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Wire protocol constants. See doc.go for the full protocol
// specification and the compatibility rule.
const (
	// ProtoVersion is the protocol version this package speaks. Every
	// request must carry it in the "v" field; the server rejects any
	// other value with a StatusError response. Within one version,
	// changes are additive only (new optional request fields, new
	// response fields), so a v2 client always understands a v2 server.
	ProtoVersion = 2
	// MaxFrame is the largest accepted frame body in bytes. A length
	// prefix above it is a protocol error: the server replies with a
	// StatusError frame and closes the connection (the oversized body is
	// never read, so the stream cannot be resynchronized).
	MaxFrame = 1 << 20
)

// Request operations.
const (
	// OpPing checks liveness; the response carries the current epoch.
	OpPing = "ping"
	// OpDecide is the single-shot gate decision: the full fail-open
	// pipeline (skip override, breaker, outage, staleness, missing
	// features) followed by model inference. With Feats it evaluates the
	// supplied vector; without, it builds counters-only features from
	// the current telemetry snapshot and may answer from the per-scope
	// decision cache.
	OpDecide = "decide"
	// OpCheck is phase one of the two-phase decision used by clients
	// that assemble their own features (probe timings draw client-side
	// randomness, so they must not be gathered when the model path is
	// unavailable): it runs the pipeline up to the staleness check and
	// answers either with a final decision (override or fail-open) or
	// with DecisionEvaluate, asking the client to send OpEval.
	OpCheck = "check"
	// OpEval is phase two: the client-built feature vector. It runs the
	// missing-feature check and model inference. Calling it without a
	// preceding OpCheck bypasses the availability checks; the sanctioned
	// sequence is check, then eval.
	OpEval = "eval"
	// OpIngest publishes a telemetry window: the aggregates become the
	// next immutable snapshot (epoch+1) and invalidate all cached
	// decisions.
	OpIngest = "ingest"
	// OpSwap hot-swaps the served model from a serialized mlkit blob
	// (epoch+1, Server.SwapModel semantics: atomic publish, in-flight
	// decisions finish on the old model).
	OpSwap = "swap"
	// OpOutage sets or clears the injected predictor-outage flag (fault
	// injection; decisions then fail open with ReasonModelDown).
	OpOutage = "outage"
	// OpStats returns the server's counters.
	OpStats = "stats"
)

// Response statuses.
const (
	// StatusOK: the operation completed; decision fields are valid.
	StatusOK = "ok"
	// StatusBusy: the bounded decision queue is full (429-style
	// backpressure). The request was not processed; retry later.
	StatusBusy = "busy"
	// StatusError: the request was malformed, unsupported, or failed.
	StatusError = "error"
)

// DecisionEvaluate is the OpCheck response asking the client to gather
// features and send OpEval. Final decisions reuse the obs.Decision*
// vocabulary ("start", "veto", "fail-open", "override").
const DecisionEvaluate = "evaluate"

// WireAge clamps a telemetry freshness age for JSON transport, which
// cannot encode infinities: +Inf (no sample ever arrived) becomes
// math.MaxFloat64, which any staleness threshold still classifies as
// stale, and -Inf becomes -math.MaxFloat64.
func WireAge(age float64) float64 {
	if math.IsInf(age, 0) {
		return math.Copysign(math.MaxFloat64, age)
	}
	return age
}

// FeatureVector is a feature vector or a telemetry aggregate on the wire.
// Its JSON form is a string, the standard padded base64 of its entries'
// IEEE-754 bits, little-endian, 8 bytes an entry: the string encoding/json
// writes for those bytes as a []byte. null is a nil vector and "" an empty
// one. Every entry crosses bit for bit, NaN, infinities and -0 included,
// so telemetry counters fully dropped by the fault model (NaN aggregates)
// keep their missing-feature accounting.
type FeatureVector []float64

// MarshalJSON writes f's wire form through encoding/json's []byte
// encoding. The frame codec writes the same bytes without it.
func (f FeatureVector) MarshalJSON() ([]byte, error) {
	var b []byte
	if f != nil {
		b = make([]byte, 0, 8*len(f))
	}
	for _, v := range f {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return json.Marshal(b)
}

// UnmarshalJSON reads f's wire form through encoding/json's []byte
// decoding: null, or a string that decodes to a multiple of 8 bytes.
// Any other value, a number array included, is an error.
func (f *FeatureVector) UnmarshalJSON(data []byte) error {
	var b []byte
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	if bytes.TrimSpace(data)[0] == '[' || len(b)%8 != 0 { // a []byte also takes an array of bytes
		return errors.New("serve: a feature vector is null or a base64 string of 8-byte entries")
	}
	if *f = nil; b != nil {
		*f = make(FeatureVector, len(b)/8)
	}
	for i := range *f {
		(*f)[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// Request is one client frame. V, ID, and Op are required on every
// request; the remaining fields depend on Op (see the Op* docs). Unknown
// fields are ignored, which is what makes additive protocol evolution
// within a version safe.
type Request struct {
	// V is the protocol version (must equal ProtoVersion).
	V int `json:"v"`
	// ID is echoed into the response so clients can match frames; the
	// server does not interpret it.
	ID uint64 `json:"id"`
	// Op selects the operation (Op* constants).
	Op string `json:"op"`

	// Now is the decision or ingest timestamp in the caller's clock
	// (simulated seconds for replayed streams). The breaker, staleness
	// check, and freshness bookkeeping all run on this clock.
	Now float64 `json:"now,omitempty"`

	// Decision identity (OpDecide/OpCheck/OpEval).
	Job   int    `json:"job,omitempty"`
	App   string `json:"app,omitempty"`
	Class int    `json:"class,omitempty"`
	// Scope keys the per-scope decision cache for counters-only
	// decisions (e.g. a partition or queue name). Empty disables caching
	// for the request.
	Scope string `json:"scope,omitempty"`
	// Skips and SkipLimit carry the job's skip-threshold state with
	// sched.Job.SkipLimit resolution rules: SkipLimit 0 means the
	// default threshold, negative means the job may never be delayed
	// (immediate override).
	Skips     int `json:"skips,omitempty"`
	SkipLimit int `json:"skip_limit,omitempty"`
	// Down reports a client-observed predictor outage (fault-injection
	// hook); the decision fails open with ReasonModelDown.
	Down bool `json:"down,omitempty"`
	// Age is the client-measured telemetry freshness age in seconds
	// (WireAge-clamped). Nil lets the server derive the age from its own
	// ingest clock; with no ingest ever, the staleness check is skipped.
	Age *float64 `json:"age,omitempty"`
	// Feats is the client-built feature vector (OpEval, or single-shot
	// OpDecide in parity mode). Without it, OpDecide builds
	// counters-only features from the current snapshot.
	Feats FeatureVector `json:"feats,omitempty"`

	// Telemetry window (OpIngest): per-counter min/mean/max aggregates
	// in schema order, and the tick they describe.
	Tick int64         `json:"tick,omitempty"`
	Min  FeatureVector `json:"min,omitempty"`
	Mean FeatureVector `json:"mean,omitempty"`
	Max  FeatureVector `json:"max,omitempty"`

	// Model is a serialized mlkit model blob (OpSwap).
	Model json.RawMessage `json:"model,omitempty"`
}

// Response is one server frame. Status is always set; Decision, Class,
// Reason, Age, and Missing are meaningful for decision ops (Class is -1
// and Age/Missing are -1 when not measured, mirroring the gate's trace
// conventions); Epoch is the snapshot generation that answered.
type Response struct {
	V        int     `json:"v"`
	ID       uint64  `json:"id"`
	Status   string  `json:"status"`
	Error    string  `json:"error,omitempty"`
	Decision string  `json:"decision,omitempty"`
	Class    int     `json:"class"`
	Reason   string  `json:"reason,omitempty"`
	Age      float64 `json:"age"`
	Missing  float64 `json:"missing"`
	Cached   bool    `json:"cached,omitempty"`
	Epoch    uint64  `json:"epoch"`
	// Stats carries the counter snapshot for OpStats (JSON object keys
	// are emitted sorted, so the encoding is deterministic).
	Stats map[string]uint64 `json:"stats,omitempty"`
}

// WriteFrame writes v, a *Request or a *Response, as one length-prefixed
// frame: a 4-byte big-endian body length followed by the JSON body.
func WriteFrame(w io.Writer, v any) error {
	frame, err := appendFrame(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// appendFrame appends v, a *Request or a *Response, as one frame. On an
// error b is returned as it was.
func appendFrame(b []byte, v any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	var err error
	switch v := v.(type) {
	case *Request:
		b, err = appendRequest(b, v)
	case *Response:
		b, err = appendResponse(b, v)
	default:
		err = fmt.Errorf("a %T is not a frame", v)
	}
	if n := len(b) - start - 4; err == nil && n > MaxFrame {
		err = fmt.Errorf("frame body %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	if err != nil {
		return b[:start], fmt.Errorf("serve: encode frame: %w", err)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b, nil
}

// errFrameTooLarge marks a length prefix above MaxFrame; the reader has
// consumed only the prefix, so the connection must be closed.
var errFrameTooLarge = fmt.Errorf("serve: frame exceeds %d bytes", MaxFrame)

// readRawFrame reads one length-prefixed frame body into buf, growing it
// when it is too small. io.EOF before the first prefix byte means a clean
// close; errFrameTooLarge means the prefix announced an oversized body
// (not consumed).
func readRawFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return buf, errFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return buf, fmt.Errorf("serve: short frame body: %w", err)
	}
	return buf[:n], nil
}

// ReadFrame reads one frame and decodes it into v, a *Request or a
// *Response, which it overwrites.
func ReadFrame(r *bufio.Reader, v any) error {
	req, isRequest := v.(*Request)
	resp, isResponse := v.(*Response)
	if !isRequest && !isResponse {
		return fmt.Errorf("serve: a %T is not a frame", v)
	}
	body, err := readRawFrame(r, nil)
	if err != nil {
		return err
	}
	if isRequest {
		err = decodeRequest(body, req, nil)
	} else {
		err = decodeResponse(body, resp)
	}
	if err != nil {
		return fmt.Errorf("serve: decode frame: %w", err)
	}
	return nil
}
