package workload

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rush/internal/sched"
)

// Streaming SWF ingest: a zero-allocation line scanner over an io.Reader
// plus a lazy job stream, so a Parallel-Workloads-Archive year replays
// straight off disk (or through gzip) without ever materializing the
// trace. The materializing loader in swfref_test.go is the differential
// reference; stream_test.go pins the two identical on real-trace excerpts.

// SWFScanner reads an SWF trace record by record without allocating per
// line or per field: lines are sliced out of an internal read buffer and
// fields are parsed with an inline decimal parser (falling back to
// strconv only for exotic spellings such as exponents). Comment and
// blank lines are skipped; short data lines are padded with -1 (unknown)
// provided at least the first four fields are present; malformed lines
// surface as line-numbered errors via Err. Records that cannot be
// replayed are skipped and counted.
type SWFScanner struct {
	r       io.Reader
	buf     []byte
	pos     int // next unread byte in buf
	end     int // end of valid data in buf
	eof     bool
	line    int
	job     SWFJob
	err     error
	skipped int // well-formed records dropped as unreplayable
}

// swfScanBuf is the scanner's initial buffer size; it grows only when a
// single line exceeds it.
const swfScanBuf = 64 * 1024

// NewSWFScanner returns a scanner over r.
func NewSWFScanner(r io.Reader) *SWFScanner {
	return &SWFScanner{r: r, buf: make([]byte, swfScanBuf)}
}

// Scan advances to the next replayable record, returning false at end of
// trace or on error (distinguish with Err).
func (s *SWFScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for {
		ln, ok := s.nextLine()
		if !ok {
			return false
		}
		s.line++
		ln = trimSpaceBytes(ln)
		if len(ln) == 0 || ln[0] == ';' {
			continue
		}
		job, err := s.parseLine(ln)
		if err != nil {
			s.err = err
			return false
		}
		if !replayableSWF(job) {
			s.skipped++
			continue
		}
		s.job = job
		return true
	}
}

// Job returns the record the last successful Scan produced.
func (s *SWFScanner) Job() SWFJob { return s.job }

// Err returns the first parse or read error, or nil at a clean end of
// trace.
func (s *SWFScanner) Err() error { return s.err }

// nextLine returns the next raw line (without the terminator), refilling
// and compacting the buffer as needed. The returned slice aliases the
// internal buffer and is only valid until the next call.
func (s *SWFScanner) nextLine() ([]byte, bool) {
	for {
		if i := bytes.IndexByte(s.buf[s.pos:s.end], '\n'); i >= 0 {
			ln := s.buf[s.pos : s.pos+i]
			s.pos += i + 1
			return ln, true
		}
		if s.eof {
			if s.pos < s.end {
				ln := s.buf[s.pos:s.end]
				s.pos = s.end
				return ln, true
			}
			return nil, false
		}
		// Compact the partial line to the front, then refill.
		if s.pos > 0 {
			copy(s.buf, s.buf[s.pos:s.end])
			s.end -= s.pos
			s.pos = 0
		}
		if s.end == len(s.buf) {
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			s.err = fmt.Errorf("workload: swf scan: %w", err)
			return nil, false
		}
	}
}

// parseLine splits one data line into its numeric fields and interprets
// them. Missing trailing fields default to -1 (unknown).
func (s *SWFScanner) parseLine(ln []byte) (SWFJob, error) {
	var fv [swfFields]float64
	for i := range fv {
		fv[i] = -1
	}
	n := 0
	for i := 0; i < len(ln); {
		// Skip inter-field whitespace.
		for i < len(ln) && (ln[i] == ' ' || ln[i] == '\t' || ln[i] == '\r') {
			i++
		}
		if i >= len(ln) {
			break
		}
		start := i
		for i < len(ln) && ln[i] != ' ' && ln[i] != '\t' && ln[i] != '\r' {
			i++
		}
		if n >= swfFields {
			return SWFJob{}, fmt.Errorf("workload: swf line %d: more than %d fields", s.line, swfFields)
		}
		v, err := parseSWFValue(ln[start:i])
		if err != nil {
			return SWFJob{}, fmt.Errorf("workload: swf line %d field %d: %w", s.line, n+1, err)
		}
		fv[n] = v
		n++
	}
	if n < swfMinFields {
		return SWFJob{}, fmt.Errorf("workload: swf line %d: %d fields, want %d-%d", s.line, n, swfMinFields, swfFields)
	}
	return interpretSWF(&fv), nil
}

// parseSWFValue parses one numeric token without allocating: an optional
// sign, integer digits, and an optional decimal fraction are folded into
// an exact integer mantissa and divided by an exact power of ten — both
// representable, so the result is the correctly rounded value strconv
// would produce. Tokens outside that safe envelope (exponents, >15
// significant digits) take the allocating strconv path; they are
// vanishingly rare in archive traces.
func parseSWFValue(tok []byte) (float64, error) {
	if len(tok) == 0 {
		return 0, fmt.Errorf("empty field")
	}
	i := 0
	neg := false
	switch tok[0] {
	case '-':
		neg = true
		i++
	case '+':
		i++
	}
	var mant uint64
	digits, frac := 0, 0
	seenDot := false
	for ; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			digits++
			if seenDot {
				frac++
			}
		case c == '.' && !seenDot:
			seenDot = true
		default:
			// Exponents and anything else: defer to strconv.
			return parseSWFValueSlow(tok)
		}
	}
	if digits == 0 {
		return 0, fmt.Errorf("invalid number %q", tok)
	}
	if digits > 15 || frac > 15 {
		return parseSWFValueSlow(tok)
	}
	v := float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, nil
}

// pow10 holds the exactly representable powers of ten the fast parser
// divides by.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseSWFValueSlow is the strconv fallback for tokens the inline parser
// declines (exponents, very long digit strings).
func parseSWFValueSlow(tok []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q", tok)
	}
	return v, nil
}

// trimSpaceBytes trims ASCII whitespace from both ends without
// allocating.
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// JobStream yields submittable jobs lazily in non-decreasing SubmitAt
// order. Next returns ok=false at end of stream; a non-nil error ends
// the stream (and is returned again on subsequent calls).
type JobStream interface {
	Next() (SubmittedJob, bool, error)
}

// SWFStream adapts a scanner into a JobStream through swfConverter, the
// per-record conversion every SWF loader shares.
// A record it yields is the caller's until handed back with Recycle,
// after which a later Next overwrites it whole for another job instead
// of allocating one.
type SWFStream struct {
	sc   *SWFScanner
	conv *swfConverter
	err  error
}

// NewSWFStream returns a lazy job stream reading SWF records from r.
func NewSWFStream(r io.Reader, opts SWFOptions) *SWFStream {
	return &SWFStream{sc: NewSWFScanner(r), conv: newSWFConverter(opts)}
}

// Next implements JobStream.
func (st *SWFStream) Next() (SubmittedJob, bool, error) {
	if st.err != nil {
		return SubmittedJob{}, false, st.err
	}
	for !st.conv.done() && st.sc.Scan() {
		if j, ok := st.conv.convert(st.sc.Job()); ok {
			return j, true, nil
		}
	}
	if err := st.sc.Err(); err != nil {
		st.err = err
		return SubmittedJob{}, false, err
	}
	return SubmittedJob{}, false, nil
}

// Recycle hands back a yielded record, at most once, once its job has
// finished and nothing reads it or its run any more.
func (st *SWFStream) Recycle(j *sched.Job) { st.conv.free = append(st.conv.free, j) }

// SliceStream wraps an in-memory job slice as a JobStream, yielding the
// jobs in slice order. A JobStream's submit times must be
// non-decreasing: a drained SWFStream already is, Generate output is not and
// needs a stable sort by SubmitAt first (experiments.RunTrialJobs does
// that for its callers).
type SliceStream struct {
	jobs []SubmittedJob
	i    int
}

// NewSliceStream returns a stream over jobs.
func NewSliceStream(jobs []SubmittedJob) *SliceStream { return &SliceStream{jobs: jobs} }

// Next implements JobStream.
func (ss *SliceStream) Next() (SubmittedJob, bool, error) {
	if ss.i >= len(ss.jobs) {
		return SubmittedJob{}, false, nil
	}
	j := ss.jobs[ss.i]
	ss.i++
	return j, true, nil
}

// OpenSWF opens an SWF trace file for streaming, transparently wrapping
// gzip when the path ends in ".gz". Close the returned reader when done.
func OpenSWF(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: open %s: %w", path, err)
	}
	return &gzipFile{gz: gz, f: f}, nil
}

// gzipFile closes both the gzip stream and the underlying file.
type gzipFile struct {
	gz *gzip.Reader
	f  *os.File
}

// Read implements io.Reader.
func (g *gzipFile) Read(p []byte) (int, error) { return g.gz.Read(p) }

// Close implements io.Closer.
func (g *gzipFile) Close() error {
	gerr := g.gz.Close()
	ferr := g.f.Close()
	if gerr != nil {
		return gerr
	}
	return ferr
}
