package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rush/internal/alloctest"
)

// FuzzFrameCodec differences the codec against encoding/json, with
// FeatureVector's JSON methods, which build on encoding/json's own []byte
// base64 and not on the codec, as the oracle for vectors. Arbitrary bytes
// decode as a Request and as a Response: decodeRequest and decodeResponse
// must accept exactly what json.Unmarshal accepts and produce the same
// value, floats compared bit for bit and Model byte for byte, and a
// request decoded into a connection's used scratch must come out the same
// as into a fresh one. Every accepted value re-encodes to json.Marshal's
// bytes. The bytes also fill a Request and a Response directly (strings
// that need not be UTF-8, floats from raw bits, the bytes as Model), which
// the encoders must write as json.Marshal does, failing where it fails.
//
// Inputs, seeds included, are cut to maxCodecInput bytes, so the fuzzer
// does not spend its time minimizing long ones; TestLongCodecSeeds
// checks the whole of the seeds longer than that.
func FuzzFrameCodec(f *testing.F) {
	for _, in := range codecSeeds(f) {
		f.Add(in[:min(len(in), maxCodecInput)])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkCodec(t, in[:min(len(in), maxCodecInput)])
	})
}

// maxCodecInput is the longest input FuzzFrameCodec decodes: room for a
// request of several fields and a vector of a few entries. At 512 bytes
// the fuzzer spent most of a minute minimizing.
const maxCodecInput = 256

// TestLongCodecSeeds checks the FuzzFrameCodec seeds too long for its
// input cap: the conformance transcript's ingest.
func TestLongCodecSeeds(t *testing.T) {
	long := 0
	for _, in := range codecSeeds(t) {
		if len(in) > maxCodecInput {
			checkCodec(t, in)
			long++
		}
	}
	if long == 0 {
		t.Fatal("no seed is longer than the fuzz input cap")
	}
}

// codecSeeds returns FuzzFrameCodec's seed inputs: every request body of
// the conformance transcript, and bodies that probe the corners of
// encoding/json's grammar and folding.
func codecSeeds(tb testing.TB) [][]byte {
	golden, err := os.ReadFile("testdata/conformance.golden")
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, line := range bytes.Split(golden, []byte("\n")) {
		if body, ok := bytes.CutPrefix(line, []byte("> ")); ok {
			seeds = append(seeds, bytes.TrimPrefix(body, []byte("(raw) ")))
		}
	}
	for _, s := range []string{
		// Keys folded the way encoding/json folds them: ASCII case, the
		// long s (U+017F) for s and the Kelvin sign (U+212A) for k.
		`{"V":1,"Id":2,"OP":"ping","sTaTuS":"ok","DECISION":"veto"}`,
		`{"\u017fcope":"q","\u017fkips":1,"s\u212aip_limit":2,"jo\u0062":3,"mi\u017f\u017fing":0.5}`,
		`{"v":1,"v":2,"feats":"AAAAAAAA8D8=","feats":"AAAAAAAAAEAAAAAAAAAIQA==","age":1,"age":2,"model":[1],"model":{ "a" : 1 }}`,
		`{"stats":{"a":1,"c":4},"stats":{"b":2,"a":3},"status":"x","status":"ok"}`,
		`{"v":null,"op":null,"now":null,"feats":null,"age":null,"model":null,"stats":null,"down":null}`,
		`{"v":1,"age":1,"age":null,"feats":"AAAAAAAA+H8AAAAAAADwPwAAAAAAAPh/","min":"","stats":{"a":null}}`,
		`{"op":"p\u0069ng","app":"\ud83d\ude00 \u00e9 \/ \b\f\n\r\t \"\\ \u0000","scope":"\ud800x\udc00\ud800\ud800\udc00"}`,
		"{\"app\":\"\xff\xfe<&>\",\"scope\":\"\xed\xa0\x80\",\"error\":\"\xe2\x80\xa8\xe2\x80\xa9\"}",
		`{"now":1e400}`, `{"age":-1e400}`, `{"missing":1e-400,"age":-0}`,
		`{"now":-0,"age":-0,"feats":"AAAAAAAAAIBIr7ya8td6Po3ttaD3xrA+UO/i1uQaS0RAjLV4Ha8VRBOo0Z7d+eV/AQAAAAAAAACamZmZmZm5Pw=="}`,
		// Vectors: empty; null; 3 and 7 bytes, not whole entries; unpadded;
		// a character outside the alphabet; padding inside or wrongly
		// placed; nonzero bits past the last byte, which encoding/base64
		// ignores; escaped solidus, newlines (which it skips) and a \u
		// escape; and the arrays of numbers that version 1 sent.
		`{"feats":""}`, `{"feats":null,"min":"","mean":null}`, `{"feats":"AAAA"}`, `{"feats":"AAAAAAAAAA=="}`,
		`{"feats":"AAAAAAAA8D8"}`, `{"feats":"AAAAAAAA*D8="}`, `{"feats":"AAAAAAAA-D8="}`, `{"feats":"AAAA=AAA8D8="}`,
		`{"feats":"AAAAAAAA8D8=AAAA"}`, `{"feats":"AAAAAAAA8D9="}`, `{"feats":"\/\/\/\/\/\/\/\/\/\/8="}`,
		`{"feats":"AAAA\nAAAA\r\n8D8=\n"}`, `{"feats":"AAAAAAAA8D8\u003d"}`, `{"max":"AAAAAAAA8H8=","min":"AAAAAAAA8P8="}`,
		`{"feats":[1e400]}`, `{"feats":[null,1,null]}`, `{"feats":[1,2]}`, `{"feats":[]}`, `{"min":[0.5],"v":1,"id":7}`,
		`{"v":9223372036854775807}`, `{"v":9223372036854775808}`, `{"v":-9223372036854775809}`,
		`{"id":18446744073709551615}`, `{"id":18446744073709551616}`, `{"id":-1}`, `{"id":-0}`,
		`{"v":1.0}`, `{"v":1e2}`, `{"tick":-0}`, `{"stats":{"a":-1}}`, `{"stats":{"a":1.5}}`,
		`{"v":"1"}`, `{"down":1}`, `{"down":true,"cached":false}`, `{"op":5}`, `{"feats":{}}`, `{"feats":"x"}`,
		`{"feats":[true]}`, `{"stats":[]}`, `{"model":"<\u2028>"}`,
		"{\"model\": { \"a\" : \"<\u2028>\" , \"b\":[ 1 , 2 ] }, \"x\":1}",
		`{"x":[{"y":[1,{"z":null}],"w":"<&>"}],"v":1,"x":{"":[true,false,-1.5E+3]}}`,
		`null`, ` null `, "\t{}\r\n", `[]`, `"x"`, `5`, `true`, `{} x`, `nul`, ``, `{`, `{"v":1,}`,
		`{"v":1 "id":2}`, `{"v" 1}`, `{,}`, `{"v":01}`, `{"v":-}`, `{"v":1.}`, `{"v":1e}`, `{"v":.5}`,
		`{"app":"\x"}`, `{"app":"\u12g4"}`, `{"app":"\u12`, "{\"app\":\"a\nb\"}", `{"v":1}{}`,
		`{"app":"\'"}`, `[1,]`, `{"x":[1 2]}`, `{"x":tru}`, "{\"x\":\xef\xbb\xbf1}",
		// Raw control bytes and a raw U+2028, for the encoders.
		"\x00\x01\x1f\x7f\b\f\n\r\t<\xe2\x80\xa8>",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestCodecNestingLimit checks the codec at encoding/json's nesting
// limit, 10,000 arrays and objects deep, which the fuzzer's mutations
// would only reach slowly.
func TestCodecNestingLimit(t *testing.T) {
	for _, n := range []int{9998, 9999, 10000} {
		deep := strings.Repeat("[", n) + strings.Repeat("]", n)
		for _, in := range []string{deep, `{"x":` + deep + `}`, `{"model":` + deep + `}`, `{"stats":{"a":` + deep + `}}`} {
			checkCodec(t, []byte(in))
		}
	}
}

// checkCodec is FuzzFrameCodec's check of one input.
func checkCodec(t *testing.T, in []byte) {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(in, &want)
	var got Request
	if err := decodeRequest(in, &got, nil); (err == nil) != (wantErr == nil) {
		t.Fatalf("request %q: codec error %v, encoding/json error %v", in, err, wantErr)
	}
	var used Request
	var scratch reqScratch
	if err := decodeRequest(full, &used, &scratch); err != nil {
		t.Fatal(err)
	}
	if err := decodeRequest(in, &used, &scratch); (err == nil) != (wantErr == nil) {
		t.Fatalf("request %q into used scratch: codec error %v, encoding/json error %v", in, err, wantErr)
	}
	if wantErr == nil {
		if !sameRequest(got, want) || !sameRequest(used, want) {
			t.Fatalf("request %q:\ncodec        %#v\nused scratch %#v\nencoding/json %#v", in, got, used, want)
		}
		sameEncoding(t, &got, &want)
	}

	var wantResp Response
	wantErr = json.Unmarshal(in, &wantResp)
	var gotResp Response
	if err := decodeResponse(in, &gotResp); (err == nil) != (wantErr == nil) {
		t.Fatalf("response %q: codec error %v, encoding/json error %v", in, err, wantErr)
	}
	if wantErr == nil {
		if !sameResponse(gotResp, wantResp) {
			t.Fatalf("response %q:\ncodec         %#v\nencoding/json %#v", in, gotResp, wantResp)
		}
		sameEncoding(t, &gotResp, &wantResp)
	}

	s := string(in)
	bits := func(i int) float64 {
		var w [8]byte
		copy(w[:], in[min(i, len(in)):])
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	age := bits(8)
	vec := make(FeatureVector, len(in)/8)
	for i := range vec {
		vec[i] = bits(8 * i)
	}
	req := Request{V: len(in), ID: uint64(len(s)) << 40, Op: s, Now: bits(0), Job: -len(in), App: s, Scope: s,
		Skips: 3, Down: len(in)%2 == 0, Age: &age, Feats: vec, Tick: -1, Min: vec[min(1, len(vec)):], Model: in}
	sameEncoding(t, &req, &req)
	resp := Response{V: 1, Status: s, Error: s, Decision: s, Reason: s, Class: -len(in), Age: bits(0), Missing: bits(8),
		Cached: len(in)%2 == 1, Epoch: math.MaxUint64, Stats: map[string]uint64{s: 1, s + "<": 2, "": 3}}
	sameEncoding(t, &resp, &resp)
}

// full is a request with every vector and an age: a request decoded into
// the scratch it leaves must come out as into a fresh one.
var full = []byte(`{"v":2,"age":7,"feats":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","min":"AAAAAAAAEEA=",` +
	`"mean":"AAAAAAAAFEAAAAAAAAAYQA==","max":"AAAAAAAAHEAAAAAAAAAgQAAAAAAAACJAAAAAAAAAJEA="}`)

// sameEncoding checks that the codec encodes got as json.Marshal encodes
// want, failing exactly where it fails.
func sameEncoding(t *testing.T, got, want any) {
	t.Helper()
	wantBytes, wantErr := json.Marshal(want)
	var gotBytes []byte
	var err error
	switch v := got.(type) {
	case *Request:
		gotBytes, err = appendRequest(nil, v)
	case *Response:
		gotBytes, err = appendResponse(nil, v)
	}
	if (err == nil) != (wantErr == nil) || !bytes.Equal(gotBytes, wantBytes) && err == nil {
		t.Fatalf("%#v\ncodec encodes        %q (%v)\njson.Marshal encodes %q (%v)", got, gotBytes, err, wantBytes, wantErr)
	}
}

func sameRequest(a, b Request) bool {
	if !sameFloat(a.Now, b.Now) || (a.Age == nil) != (b.Age == nil) || a.Age != nil && !sameFloat(*a.Age, *b.Age) ||
		(a.Model == nil) != (b.Model == nil) || !bytes.Equal(a.Model, b.Model) {
		return false
	}
	for _, v := range [][2]FeatureVector{{a.Feats, b.Feats}, {a.Min, b.Min}, {a.Mean, b.Mean}, {a.Max, b.Max}} {
		if (v[0] == nil) != (v[1] == nil) || len(v[0]) != len(v[1]) {
			return false
		}
		for j := range v[0] {
			if !sameFloat(v[0][j], v[1][j]) {
				return false
			}
		}
	}
	a.Now, a.Age, a.Model, a.Feats, a.Min, a.Mean, a.Max = 0, nil, nil, nil, nil, nil, nil
	b.Now, b.Age, b.Model, b.Feats, b.Min, b.Mean, b.Max = 0, nil, nil, nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

func sameResponse(a, b Response) bool {
	if !sameFloat(a.Age, b.Age) || !sameFloat(a.Missing, b.Missing) {
		return false
	}
	a.Age, a.Missing, b.Age, b.Missing = 0, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFieldTables holds the codec's field lists to the struct tags that
// encoding/json reads: every field, in order, under its tag's name, and
// omitempty where tagged.
func TestFieldTables(t *testing.T) {
	var req Request
	var resp Response
	reqFields, respFields := req.fields(), resp.fields()
	for _, c := range []struct {
		v      reflect.Value
		fields []field
	}{{reflect.ValueOf(&req).Elem(), reqFields[:]}, {reflect.ValueOf(&resp).Elem(), respFields[:]}} {
		if c.v.NumField() != len(c.fields) {
			t.Fatalf("%s has %d fields, the codec lists %d", c.v.Type(), c.v.NumField(), len(c.fields))
		}
		for i, f := range c.fields {
			tag := c.v.Type().Field(i).Tag.Get("json")
			name, opts, _ := strings.Cut(tag, ",")
			if f.name != name || f.omitEmpty != (opts == "omitempty") || f.ptr != c.v.Field(i).Addr().Interface() {
				t.Errorf("%s field %d is %s tagged %q; the codec lists %q, omitempty %v, %T",
					c.v.Type(), i, c.v.Type().Field(i).Name, tag, f.name, f.omitEmpty, f.ptr)
			}
		}
	}
}

// TestTightBufferGrowsOnce pins that the trial write of an omitted field
// keeps the room it grows. An eval encoded into a buffer with exactly the
// room its body needs grows the buffer once, for the omitted fields after
// feats, and a hundred encodes into that buffer allocate nothing more.
func TestTightBufferGrowsOnce(t *testing.T) {
	req := Request{V: ProtoVersion, ID: 1, Op: OpEval, Now: 1, App: "Kripke", Feats: make(FeatureVector, 282)}
	body, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	objects, _ := alloctest.Count(3, func() { buf = make([]byte, 0, len(body)) }, func() {
		for range 100 {
			buf, _ = appendRequest(buf[:0], &req)
		}
	})
	if objects > 1 {
		t.Fatalf("100 encodes into a %d-byte buffer allocated %d times, want 1", len(body), objects)
	}
}

// TestWarmDecodeAllocatesNothing pins that a decide decoded into a warm
// scratch allocates nothing: its app and scope come from the
// connection's name table.
func TestWarmDecodeAllocatesNothing(t *testing.T) {
	body, err := appendRequest(nil, &Request{V: ProtoVersion, ID: 7, Op: OpDecide, Now: 101, App: "AMG", Scope: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	var (
		req     Request
		scratch reqScratch
	)
	decode := func() {
		if err := decodeRequest(body, &req, &scratch); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	objects, _ := alloctest.Count(3, nil, decode)
	if objects != 0 || req.Op != OpDecide || req.App != "AMG" || req.Scope != "q1" {
		t.Fatalf("a warm decode of %s allocated %d objects and gave %+v; want 0", body, objects, req)
	}
}

// TestNameTableIsBounded pins that a client sending ever new names, or a
// name past maxNameLen, cannot grow a connection's name table past its
// bound, and that every name still decodes as sent.
func TestNameTableIsBounded(t *testing.T) {
	var (
		req     Request
		scratch reqScratch
	)
	long := strings.Repeat("x", maxNameLen+1)
	for i := range 10000 {
		app := strconv.Itoa(i)
		if i == 0 {
			app = long
		}
		body, err := appendRequest(nil, &Request{V: ProtoVersion, Op: OpDecide, App: app})
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeRequest(body, &req, &scratch); err != nil || req.App != app {
			t.Fatalf("name %d decoded as %q, %v", i, req.App, err)
		}
	}
	if _, kept := scratch.names[long]; kept || len(scratch.names) != maxNames {
		t.Fatalf("10,000 names left %d in the table (the long one kept: %v); want the bound, %d", len(scratch.names), kept, maxNames)
	}
}

// BenchmarkEvalCodec encodes and decodes an eval carrying a 282-entry
// feature vector, the request a served gate sends before every start:
// most of the body is the vector's base64 string.
func BenchmarkEvalCodec(b *testing.B) {
	feats := make(FeatureVector, 282)
	for i := range feats {
		feats[i] = 0.1 * float64(i)
	}
	age := 5.0
	req := Request{V: ProtoVersion, ID: 1, Op: OpEval, Now: 1e5, Job: 42, App: "Kripke", Class: 1, Age: &age, Feats: feats}
	var (
		buf     []byte
		got     Request
		scratch reqScratch
		err     error
	)
	b.ReportAllocs()
	for b.Loop() {
		if buf, err = appendRequest(buf[:0], &req); err != nil {
			b.Fatal(err)
		}
		if err = decodeRequest(buf, &got, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}
