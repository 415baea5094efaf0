package workload

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readExcerpt loads the archive-style fixture trace.
func readExcerpt(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "excerpt.swf"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drainStream collects a JobStream into a slice.
func drainStream(t *testing.T, st JobStream) []SubmittedJob {
	t.Helper()
	var out []SubmittedJob
	for {
		j, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, j)
	}
}

// sameJobs fails unless the two job streams are identical field for
// field.
func sameJobs(t *testing.T, got, want []SubmittedJob) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d jobs, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.SubmitAt != w.SubmitAt {
			t.Fatalf("job %d: SubmitAt %v vs %v", i, g.SubmitAt, w.SubmitAt)
		}
		if *g.Job != *w.Job {
			t.Fatalf("job %d differs:\n stream %+v\n ref    %+v", i, *g.Job, *w.Job)
		}
	}
}

// TestStreamMatchesInMemoryLoader is the loader differential: the lazy
// SWFStream and the in-memory ParseSWF+FromSWF reference must produce
// identical job streams from identical bytes, across seeds and option
// combinations (including MaxNodes size-filtering and MaxJobs
// truncation, which interact with the application-assignment RNG).
func TestStreamMatchesInMemoryLoader(t *testing.T) {
	raw := readExcerpt(t)
	opts := []SWFOptions{
		{Seed: 1},
		{Seed: 7, CoresPerNode: 36, MaxNodes: 16},
		{Seed: 42, MaxJobs: 5},
		{Seed: 9, CoresPerNode: 18, MaxNodes: 64, MaxJobs: 11},
	}
	for _, o := range opts {
		trace, err := ParseSWF(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := FromSWF(trace, o)
		if err != nil {
			t.Fatal(err)
		}
		st := NewSWFStream(strings.NewReader(string(raw)), o)
		got := drainStream(t, st)
		sameJobs(t, got, want)
		if st.conv.n != len(want) {
			t.Fatalf("opts %+v: Emitted %d, want %d", o, st.conv.n, len(want))
		}
	}
}

// TestStreamTinyBuffer forces the scanner through its compact, refill,
// and grow paths by starting from a buffer far smaller than any line,
// and requires the output to stay identical to the reference.
func TestStreamTinyBuffer(t *testing.T) {
	raw := readExcerpt(t)
	trace, err := ParseSWF(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromSWF(trace, SWFOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := &SWFStream{
		sc:   &SWFScanner{r: strings.NewReader(string(raw)), buf: make([]byte, 7)},
		conv: newSWFConverter(SWFOptions{Seed: 3}),
	}
	sameJobs(t, drainStream(t, st), want)
}

// TestStreamNoTrailingNewline checks the scanner delivers a final
// unterminated line.
func TestStreamNoTrailingNewline(t *testing.T) {
	const trace = "1 0 5 100 36 -1 -1 36 600 -1 1 1 1 1 1 -1 -1 -1\n" +
		"2 10 5 100 36 -1 -1 36 600 -1 1 1 1 1 1 -1 -1 -1"
	st := NewSWFStream(strings.NewReader(trace), SWFOptions{Seed: 1})
	if got := drainStream(t, st); len(got) != 2 {
		t.Fatalf("got %d jobs, want 2", len(got))
	}
}

// TestStreamGzipRoundTrip writes the fixture through gzip to disk and
// replays it via OpenSWF, requiring the job stream to match the plain
// file byte for byte.
func TestStreamGzipRoundTrip(t *testing.T) {
	raw := readExcerpt(t)
	dir := t.TempDir()

	plain := filepath.Join(dir, "trace.swf")
	if err := os.WriteFile(plain, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	packed := filepath.Join(dir, "trace.swf.gz")
	f, err := os.Create(packed)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	load := func(path string) []SubmittedJob {
		r, err := OpenSWF(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return drainStream(t, NewSWFStream(r, SWFOptions{Seed: 5}))
	}
	want := load(plain)
	got := load(packed)
	if len(want) == 0 {
		t.Fatal("fixture produced no jobs")
	}
	sameJobs(t, got, want)
}

// TestScannerErrorsCarryLineNumbers pins the malformed-trace contract:
// errors name the offending line and field, and both loaders report the
// same error.
func TestScannerErrorsCarryLineNumbers(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "malformed.swf"))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSWFScanner(strings.NewReader(string(b)))
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Fatal("corrupt line should error")
	}
	if !strings.Contains(sc.Err().Error(), "line 4") || !strings.Contains(sc.Err().Error(), "field 4") {
		t.Fatalf("error should carry line and field: %v", sc.Err())
	}
	if _, perr := ParseSWF(strings.NewReader(string(b))); perr == nil || !strings.Contains(perr.Error(), "line 4") {
		t.Fatalf("in-memory loader should report the same line: %v", perr)
	}

	// Too-short and too-long data lines are malformed, with line numbers.
	sc = NewSWFScanner(strings.NewReader(";header\n\n1 2 3\n"))
	for sc.Scan() {
	}
	if sc.Err() == nil || !strings.Contains(sc.Err().Error(), "line 3") {
		t.Fatalf("short line should error with its number: %v", sc.Err())
	}
	long := strings.Repeat("1 ", 19)
	sc = NewSWFScanner(strings.NewReader(long + "\n"))
	for sc.Scan() {
	}
	if sc.Err() == nil || !strings.Contains(sc.Err().Error(), "more than 18") {
		t.Fatalf("long line should error: %v", sc.Err())
	}
}

// TestScannerShortLinePadding checks that a truncated record pads its
// missing fields with -1 and still applies the unknown-value defaults.
func TestScannerShortLinePadding(t *testing.T) {
	sc := NewSWFScanner(strings.NewReader("7 100 3 88.5 36\n"))
	if !sc.Scan() {
		t.Fatalf("scan failed: %v", sc.Err())
	}
	j := sc.Job()
	if j.ID != 7 || j.Submit != 100 || j.RunTime != 88.5 || j.Procs != 36 {
		t.Fatalf("short record misparsed: %+v", j)
	}
	if j.ReqProcs != 36 {
		t.Fatalf("ReqProcs should default to Procs, got %d", j.ReqProcs)
	}
	if j.ReqTime != -1 || j.ExecutableID != -1 {
		t.Fatalf("missing fields should be -1: %+v", j)
	}
}

// TestScannerSkipsUnreplayable counts dropped records: cancelled jobs,
// unknown run times, unknown sizes.
func TestScannerSkipsUnreplayable(t *testing.T) {
	raw := readExcerpt(t)
	sc := NewSWFScanner(strings.NewReader(string(raw)))
	n := 0
	for sc.Scan() {
		n++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	// Jobs 4 (run time -1), 14 (run time 0), and 21 (no size) drop.
	if sc.skipped != 3 {
		t.Fatalf("skipped %d records, want 3", sc.skipped)
	}
	if n != 21 {
		t.Fatalf("scanned %d replayable records, want 21", n)
	}
}

// TestParseSWFValueMatchesStrconv differences the inline float parser
// against strconv across representative and adversarial tokens — the
// fast path must be bit-identical where it claims to handle a token,
// and must fall back (not misparse) everywhere else.
func TestParseSWFValueMatchesStrconv(t *testing.T) {
	tokens := []string{
		"0", "-1", "1", "42", "3600", "299.99", "3661.50", "0.5",
		"-0.25", "+17", "123456789012345", "0.000001", "18234.00",
		"1e3", "2.5e-2", "1E6", "9999999999999999999", "12345678901234567.89",
		".5", "5.", "0000012.3400",
	}
	for _, tok := range tokens {
		want, werr := strconv.ParseFloat(tok, 64)
		got, gerr := parseSWFValue([]byte(tok))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: error mismatch: strconv %v, fast %v", tok, werr, gerr)
		}
		if werr == nil && got != want {
			t.Fatalf("%q: fast %v, strconv %v", tok, got, want)
		}
	}
	for _, bad := range []string{"", "-", "+", ".", "abc", "1.2.3", "12O"} {
		if _, err := parseSWFValue([]byte(bad)); err == nil {
			t.Fatalf("%q should not parse", bad)
		}
	}
}

// TestStreamMonotonicClamp checks the converter never emits a submit
// time earlier than its predecessor, even when the trace has an unknown
// (-1) submit in the middle — the contract the replay feeder relies on.
func TestStreamMonotonicClamp(t *testing.T) {
	st := NewSWFStream(strings.NewReader(string(readExcerpt(t))), SWFOptions{Seed: 2})
	last := -1.0
	for {
		j, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if j.SubmitAt < last {
			t.Fatalf("submit order regressed: %v after %v", j.SubmitAt, last)
		}
		last = j.SubmitAt
	}
}
