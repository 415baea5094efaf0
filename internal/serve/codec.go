package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"rush/internal/obs"
)

// This file is the frame codec: the JSON bodies of Request and
// Response, without reflection and without leaving encoding/json's
// format. The encoders write byte for byte what json.Marshal writes; the
// decoders accept and reject what json.Unmarshal accepts and rejects,
// produce equal values and read the body once. Both walk a type's fields
// by their json tags, as encoding/json does. FuzzFrameCodec differences
// all four functions against encoding/json.

// errUnexpectedEnd is encoding/json's error for a truncated body, the one
// error text the conformance transcript pins.
var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// field is a struct field under its json tag, with a pointer to it.
type field struct {
	name      string
	omitEmpty bool
	ptr       any
}

// fields lists req's fields in declaration order (TestFieldTables holds
// the list to the struct tags).
func (req *Request) fields() [18]field {
	return [...]field{
		{"v", false, &req.V}, {"id", false, &req.ID}, {"op", false, &req.Op}, {"now", true, &req.Now},
		{"job", true, &req.Job}, {"app", true, &req.App}, {"class", true, &req.Class}, {"scope", true, &req.Scope},
		{"skips", true, &req.Skips}, {"skip_limit", true, &req.SkipLimit}, {"down", true, &req.Down},
		{"age", true, &req.Age}, {"feats", true, &req.Feats}, {"tick", true, &req.Tick}, {"min", true, &req.Min},
		{"mean", true, &req.Mean}, {"max", true, &req.Max}, {"model", true, &req.Model},
	}
}

// fields lists resp's fields in declaration order.
func (resp *Response) fields() [12]field {
	return [...]field{
		{"v", false, &resp.V}, {"id", false, &resp.ID}, {"status", false, &resp.Status}, {"error", true, &resp.Error},
		{"decision", true, &resp.Decision}, {"class", false, &resp.Class}, {"reason", true, &resp.Reason},
		{"age", false, &resp.Age}, {"missing", false, &resp.Missing}, {"cached", true, &resp.Cached},
		{"epoch", false, &resp.Epoch}, {"stats", true, &resp.Stats},
	}
}

// appendRequest appends the JSON body of req. A non-finite Now or Age is
// an error, as it is for json.Marshal; vector entries cross as their bits.
func appendRequest(b []byte, req *Request) ([]byte, error) {
	fields := req.fields()
	return appendObject(b, fields[:])
}

// appendResponse appends the JSON body of resp. A non-finite Age or
// Missing is an error, as it is for json.Marshal.
func appendResponse(b []byte, resp *Response) ([]byte, error) {
	fields := resp.fields()
	return appendObject(b, fields[:])
}

// appendObject writes fields as json.Marshal writes a struct: in order,
// each under its name, but for omitempty fields holding the zero value.
func appendObject(b []byte, fields []field) ([]byte, error) {
	b = append(b, '{')
	first := len(b)
	for _, f := range fields {
		out := b
		if len(b) > first {
			out = append(out, ',')
		}
		out, set, err := appendValue(append(appendString(out, f.name), ':'), f.ptr)
		if err != nil {
			return b, err
		}
		if set || !f.omitEmpty {
			b = out
		} else {
			b = out[:len(b)] // dropped, but the room it grew is kept
		}
	}
	return append(b, '}'), nil
}

// appendValue writes the value p points to and reports whether it is set:
// not the zero value that omitempty leaves out. The pointer, vector, map
// and raw fields are all omitempty; unset, they write nothing or what is
// dropped.
func appendValue(b []byte, p any) ([]byte, bool, error) {
	switch p := p.(type) {
	case *int:
		return strconv.AppendInt(b, int64(*p), 10), *p != 0, nil
	case *int64:
		return strconv.AppendInt(b, *p, 10), *p != 0, nil
	case *uint64:
		return strconv.AppendUint(b, *p, 10), *p != 0, nil
	case *bool:
		return strconv.AppendBool(b, *p), *p, nil
	case *string:
		return appendString(b, *p), *p != "", nil
	case *float64:
		if math.IsNaN(*p) || math.IsInf(*p, 0) {
			return b, true, fmt.Errorf("unsupported value: %v", *p)
		}
		return appendFloat(b, *p), *p != 0, nil
	case **float64:
		if *p == nil {
			return b, false, nil
		}
		b, _, err := appendValue(b, *p)
		return b, true, err
	case *FeatureVector:
		return appendVector(b, *p), len(*p) != 0, nil
	case *json.RawMessage:
		if len(*p) == 0 {
			return b, false, nil
		}
		b, err := appendCompact(b, *p)
		return b, true, err
	case *map[string]uint64:
		keys := make([]string, 0, len(*p))
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(appendString(b, k), ':'), (*p)[k], 10)
		}
		return append(b, '}'), len(*p) != 0, nil
	}
	panic(fmt.Sprintf("serve: no JSON form for %T", p))
}

// appendVector writes v as FeatureVector.MarshalJSON does, a nil v as "":
// base64 into b from 24 entries' bits at a time, so only the end is padded.
func appendVector(b []byte, v FeatureVector) []byte {
	var bits [24 * 8]byte
	b = append(b, '"')
	for len(v) > 0 {
		n := min(len(v), 24)
		for i, f := range v[:n] {
			binary.LittleEndian.PutUint64(bits[8*i:], math.Float64bits(f))
		}
		b = base64.StdEncoding.AppendEncode(b, bits[:8*n])
		v = v[n:]
	}
	return append(b, '"')
}

// appendFloat writes a finite f as encoding/json does: ES6 number
// formatting, exponent form outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString writes s quoted as json.Marshal does: control characters,
// the HTML-significant < > &, U+2028 and U+2029 escaped, and each byte of
// invalid UTF-8 written as an escaped U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, r, size := s[i], rune(s[i]), 1
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' ||
			size > 1 && r != 0x2028 && r != 0x2029 {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexByte("\"\\\b\f\n\r\t", c); j >= 0 {
			b = append(b, '\\', `"\bfnrt`[j])
		} else {
			b = appendEscape(b, r)
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendEscape writes the \u escape of a rune of the basic plane.
func appendEscape(b []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
}

// appendCompact writes the JSON value raw as json.Marshal writes a
// json.RawMessage: checked, space outside strings dropped, < > & and
// U+2028 and U+2029 escaped, every other byte as it is.
func appendCompact(b, raw []byte) ([]byte, error) {
	d := decoder{data: raw}
	if err := d.skip(); err != nil {
		return b, err
	}
	if err := d.end(); err != nil {
		return b, err
	}
	inString, escaped := false, false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '<' || c == '>' || c == '&':
			b = appendEscape(b, rune(c))
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			b = appendEscape(b, 0x2028|rune(raw[i+2]&1))
			i += 2
		case inString:
			inString = escaped || c != '"'
			escaped = !escaped && c == '\\'
			b = append(b, c)
		case c != ' ' && c != '\t' && c != '\n' && c != '\r':
			inString = c == '"'
			b = append(b, c)
		}
	}
	return b, nil
}

// reqScratch is the storage a connection decodes its requests into: one
// array for all the vectors of a request, one after another, the age, the
// bytes of the vector being decoded, and a table of the names its
// requests carried. A request decoded into it is valid until the next
// decode.
type reqScratch struct {
	floats []float64
	age    float64
	bits   []byte
	names  map[string]string
}

const maxNames, maxNameLen = 256, 64

// name returns b as a string: the table's when it holds b, else word's,
// which the table keeps while it has room, so that a client sending ever
// new names cannot grow it past maxNames of maxNameLen bytes.
func (s *reqScratch) name(b []byte) string {
	if n, ok := s.names[string(b)]; ok {
		return n
	}
	n := word(b)
	if len(s.names) < maxNames && len(b) <= maxNameLen {
		if s.names == nil {
			s.names = make(map[string]string)
		}
		s.names[n] = n
	}
	return n
}

// decodeRequest decodes one request body into req, which it first
// resets. With scratch, the vector fields and Age are decoded into its
// storage; without, they are allocated.
func decodeRequest(data []byte, req *Request, scratch *reqScratch) error {
	*req = Request{}
	if scratch != nil {
		scratch.floats = scratch.floats[:0]
	}
	fields := req.fields()
	d := decoder{data: data, scratch: scratch}
	return d.top("request", fields[:])
}

// decodeResponse decodes one response body into resp, which it first
// resets.
func decodeResponse(data []byte, resp *Response) error {
	*resp = Response{}
	fields := resp.fields()
	d := decoder{data: data}
	return d.top("response", fields[:])
}

// vocabulary is every constant an op, status, decision or reason carries.
// word returns b as one of them when it spells one, so that decoding
// those fields allocates nothing.
var vocabulary = [...]string{
	OpPing, OpDecide, OpCheck, OpEval, OpIngest, OpSwap, OpOutage, OpStats,
	StatusOK, StatusBusy, StatusError,
	DecisionEvaluate, obs.DecisionStart, obs.DecisionVeto, obs.DecisionFailOpen, obs.DecisionOverride,
	obs.ReasonBreakerOpen, obs.ReasonModelDown, obs.ReasonStaleTelemetry, obs.ReasonMissingFeatures,
}

func word(b []byte) string {
	for _, w := range vocabulary {
		if string(b) == w {
			return w
		}
	}
	return string(b)
}

// decoder is one pass over a body. A syntax error ends the pass at once.
// A value of the wrong type for its field is recorded and passed over, so
// that, as with encoding/json, a syntax error anywhere takes precedence.
type decoder struct {
	data    []byte
	off     int
	depth   int
	err     error  // the first value of the wrong type
	buf     []byte // unescaped strings
	scratch *reqScratch
}

// top decodes a whole body into fields: an object's members by name, the
// last of duplicates winning and unknown names passed over, or another
// value, which decodes to nothing and unless null is of the wrong type.
func (d *decoder) top(what string, fields []field) error {
	var err error
	if d.peekValue() == '{' {
		err = d.object(func(key []byte) error {
			if i := lookup(fields, key); i >= 0 {
				return d.field(fields[i].ptr, fields[i].name)
			}
			return d.skip()
		})
	} else {
		err = d.null(what)
	}
	if err != nil {
		return err
	}
	return d.end()
}

// lookup returns the index of the field a key names, -1 for none: the
// name spelled exactly, or else as encoding/json matches names,
// case-folded, so that U+017F (long s) matches "s" and U+212A (Kelvin
// sign) "k".
func lookup(fields []field, key []byte) int {
	for i := range fields {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].name)) {
			return i
		}
	}
	return -1
}

// end checks that only space follows the top-level value.
func (d *decoder) end() error {
	if d.peekValue(); d.off < len(d.data) {
		return d.syntaxErr(d.off, "after top-level value")
	}
	return d.err
}

// peekValue skips space and returns the next byte, 0 at the end.
func (d *decoder) peekValue() byte {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *decoder) syntaxErr(at int, context string) error {
	if at >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s", rune(d.data[at]), context)
}

func (d *decoder) mismatch(field string) {
	if d.err == nil {
		d.err = fmt.Errorf("cannot decode %s: wrong type or out of range", field)
	}
}

// object reads the object at d.off, calling member with each key (valid
// until the value is read) to read the value after it.
func (d *decoder) object(member func(key []byte) error) error {
	return d.container('}', func() error {
		if d.peekValue() != '"' {
			return d.syntaxErr(d.off, "looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peekValue() != ':' {
			return d.syntaxErr(d.off, "after object key")
		}
		d.off++
		return member(key)
	})
}

// container reads the array or object at d.off up to its closing byte,
// calling elem to read each element or member.
func (d *decoder) container(closing byte, elem func() error) error {
	if d.off++; d.depth >= maxDepth {
		return errors.New("exceeded max depth")
	}
	d.depth++
	if d.peekValue() == closing {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peekValue() {
		case ',':
			d.off++
		case closing:
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxErr(d.off, "after array element or object member")
		}
	}
}

// skip checks and passes over the next value.
func (d *decoder) skip() error {
	switch d.peekValue() {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.container(']', d.skip)
	}
	_, _, err := d.value()
	return err
}

// value reads the next value. kind is 'n', 't' or 'f' for the literals,
// '"' for a string (text unescaped), '0' for a number (text as written),
// and '[' or '{' for a container, which it checks and passes over.
func (d *decoder) value() (kind byte, text []byte, err error) {
	switch c := d.peekValue(); c {
	case '"':
		text, err = d.str()
		return c, text, err
	case '{', '[':
		return c, nil, d.skip()
	case 'n':
		return c, nil, d.literal("null")
	case 't':
		return c, nil, d.literal("true")
	case 'f':
		return c, nil, d.literal("false")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		text, err = d.number()
		return '0', text, err
	}
	return 0, nil, d.syntaxErr(d.off, "looking for beginning of value")
}

func (d *decoder) literal(lit string) error {
	for i := range len(lit) {
		if d.off+i >= len(d.data) || d.data[d.off+i] != lit[i] {
			return d.syntaxErr(d.off+i, "in literal "+lit)
		}
	}
	d.off += len(lit)
	return nil
}

// number reads a number and returns its text.
func (d *decoder) number() ([]byte, error) {
	data, i := d.data, d.off
	digits := func(i int) int {
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i
	}
	if data[i] == '-' {
		i++
	}
	switch j := digits(i); {
	case j == i:
		return nil, d.syntaxErr(i, "in numeric literal")
	case data[i] == '0':
		i++ // a leading zero is the whole integer part
	default:
		i = j
	}
	if i < len(data) && data[i] == '.' {
		if i++; digits(i) == i {
			return nil, d.syntaxErr(i, "after decimal point in numeric literal")
		}
		i = digits(i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if digits(i) == i {
			return nil, d.syntaxErr(i, "in exponent of numeric literal")
		}
		i = digits(i)
	}
	text := data[d.off:i]
	d.off = i
	return text, nil
}

// str reads a string and returns it unescaped, as encoding/json unquotes:
// a UTF-16 surrogate pair joined, a lone surrogate and each byte of
// invalid UTF-8 replaced by U+FFFD. The result aliases the body or the
// decoder's buffer and is valid until the next call.
func (d *decoder) str() ([]byte, error) {
	data, start := d.data, d.off+1
	var b []byte // nil while the text is the body's bytes as they are
	for i := start; i < len(data); {
		// The run of bytes that stand for themselves, skipped while the
		// text is the body's bytes and copied whole once it is not.
		j := i
		for j < len(data) && plain[data[j]] {
			j++
		}
		if b != nil {
			b = append(b, data[i:j]...)
		}
		if i = j; i == len(data) {
			break
		}
		switch c := data[i]; {
		case c == '"':
			if d.off = i + 1; b == nil {
				return data[start:i], nil
			}
			d.buf = b
			return b, nil
		case c < 0x20:
			return nil, d.syntaxErr(i, "in string literal")
		}
		if b == nil {
			b = append(d.buf[:0], data[start:i]...)
		}
		if data[i] >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += n
			continue
		}
		if i+1 >= len(data) {
			break
		}
		if j := strings.IndexByte(`"\/bfnrt`, data[i+1]); j >= 0 {
			b = append(b, "\"\\/\b\f\n\r\t"[j])
			i += 2
			continue
		}
		if data[i+1] != 'u' {
			return nil, d.syntaxErr(i+1, "in string escape code")
		}
		r, err := d.hex4(i + 2)
		if err != nil {
			return nil, err
		}
		if i += 6; utf16.IsSurrogate(r) {
			next := rune(-1)
			if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
				next, _ = d.hex4(i + 2)
			}
			if r = utf16.DecodeRune(r, next); r != unicode.ReplacementChar {
				i += 6
			}
		}
		b = utf8.AppendRune(b, r)
	}
	return nil, errUnexpectedEnd
}

// plain[c] says whether byte c stands for itself in a JSON string:
// printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 reads the four hex digits of a \u escape at data[i:], -1 and an
// error when they are not there.
func (d *decoder) hex4(i int) (rune, error) {
	r := rune(0)
	for j := i; j < i+4; j++ {
		k := -1 // the digit's value is its index mod 16
		if j < len(d.data) {
			k = strings.IndexByte("0123456789abcdef0123456789ABCDEF", d.data[j])
		}
		if k < 0 {
			return -1, d.syntaxErr(j, `in \u hexadecimal character escape`)
		}
		r = r<<4 | rune(k%16)
	}
	return r, nil
}

// scalar decodes the next value into a field: dst is a *int, *int64,
// *uint64, *float64, *bool or *string. null leaves the field as it is; a
// value of another type, a number out of range, and a fraction or an
// exponent for an integer are of the wrong type.
func (d *decoder) scalar(dst any, field string) error {
	kind, text, err := d.value()
	if err != nil || kind == 'n' {
		return err
	}
	ok, perr := kind == '0', error(nil)
	switch p := dst.(type) {
	case *int:
		var n int64
		n, perr = strconv.ParseInt(string(text), 10, strconv.IntSize)
		*p = int(n)
	case *int64:
		*p, perr = strconv.ParseInt(string(text), 10, 64)
	case *uint64:
		*p, perr = strconv.ParseUint(string(text), 10, 64)
	case *float64:
		*p, perr = strconv.ParseFloat(string(text), 64)
	case *bool:
		ok, *p = kind == 't' || kind == 'f', kind == 't'
	case *string:
		if ok = kind == '"'; ok && d.scratch != nil {
			*p = d.scratch.name(text)
		} else if ok {
			*p = word(text)
		}
	}
	if !ok || perr != nil {
		d.mismatch(field)
	}
	return nil
}

// null reads a value where only null fits; any other is of the wrong
// type.
func (d *decoder) null(field string) error {
	if kind, _, err := d.value(); err != nil || kind == 'n' {
		return err
	}
	d.mismatch(field)
	return nil
}

// field decodes the next value into the field p points to.
func (d *decoder) field(p any, name string) error {
	switch p := p.(type) {
	case **float64:
		if d.peekValue() == 'n' {
			*p = nil
			return d.literal("null")
		}
		if *p == nil && d.scratch != nil {
			*p = &d.scratch.age
		} else if *p == nil {
			*p = new(float64)
		}
		return d.scalar(*p, name)
	case *FeatureVector:
		return d.vector(p, name)
	case *json.RawMessage:
		d.peekValue()
		start := d.off
		err := d.skip()
		*p = append((*p)[:0], d.data[start:d.off]...)
		return err
	case *map[string]uint64:
		if d.peekValue() != '{' {
			*p = nil
			return d.null(name)
		}
		if *p == nil { // a duplicate key adds to the map, as with encoding/json
			*p = map[string]uint64{}
		}
		return d.object(func(key []byte) error {
			k, n := string(key), uint64(0) // null is 0
			err := d.scalar(&n, name)
			(*p)[k] = n
			return err
		})
	}
	return d.scalar(p, name)
}

// vector decodes a FeatureVector as FeatureVector.UnmarshalJSON does, into
// the scratch when the decoder has one: null is a nil vector, "" an empty
// one, and any value but a base64 string of whole entries of the wrong type.
func (d *decoder) vector(p *FeatureVector, name string) error {
	kind, text, err := d.value()
	if err != nil || kind == 'n' {
		*p = nil
		return err
	}
	s := d.scratch
	if s == nil {
		s = new(reqScratch)
	}
	if kind == '"' {
		s.bits = slices.Grow(s.bits[:0], base64.StdEncoding.DecodedLen(len(text)))
		n, err := base64.StdEncoding.Decode(s.bits[:cap(s.bits)], text)
		if s.bits = s.bits[:n]; err == nil && n%8 == 0 {
			start := len(s.floats)
			for i := 0; i < n; i += 8 {
				s.floats = append(s.floats, math.Float64frombits(binary.LittleEndian.Uint64(s.bits[i:])))
			}
			if *p = s.floats[start:len(s.floats):len(s.floats)]; *p == nil {
				*p = FeatureVector{}
			}
			return nil
		}
	}
	d.mismatch(name)
	return nil
}
