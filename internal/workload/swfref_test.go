package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The materializing SWF loader, the oracle the streaming one in stream.go
// is differenced against (TestStreamMatchesInMemoryLoader, FuzzSWFStream):
// bufio lines, strings.FieldsFunc and strconv.ParseFloat where the
// scanner slices its own buffer and parses numbers inline. Both interpret
// records through interpretSWF and swfConverter.

// swfSpace reports whether r separates SWF fields: a blank, a tab or a
// carriage return, the set the streaming scanner splits on. Any other
// byte is part of a field in both loaders, so they accept the same
// lines.
func swfSpace(r rune) bool { return r == ' ' || r == '\t' || r == '\r' }

// ParseSWF reads a whole SWF trace into memory. Header comments and
// blank lines are skipped; short data lines are padded with -1 (unknown)
// per the archive convention provided at least the first four fields are
// present; malformed lines surface as line-numbered errors. Records that
// cannot be replayed (no positive run time or processor count) are
// dropped. It is the slice-building reference the streaming loader in
// stream.go is differenced against.
func ParseSWF(r io.Reader) ([]SWFJob, error) {
	var jobs []SWFJob
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.FieldsFunc(sc.Text(), swfSpace)
		if len(fields) == 0 || fields[0][0] == ';' {
			continue
		}
		if len(fields) < swfMinFields || len(fields) > swfFields {
			return nil, fmt.Errorf("workload: swf line %d: %d fields, want %d-%d", line, len(fields), swfMinFields, swfFields)
		}
		var fv [swfFields]float64
		for i := range fv {
			fv[i] = -1
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: swf line %d field %d: %w", line, i+1, err)
			}
			fv[i] = v
		}
		j := interpretSWF(&fv)
		if !replayableSWF(j) {
			continue
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: swf scan: %w", err)
	}
	return jobs, nil
}

// FromSWF converts an SWF trace into a submittable job stream. Run times
// become contention-free base work; requested times become the
// backfiller's estimates (falling back to 1.5x the run time when absent);
// each job is assigned a proxy-application profile keyed on its SWF
// executable ID so re-runs of the same executable share a profile.
// Submit times are offset from the first record's and clamped monotonic.
func FromSWF(trace []SWFJob, opts SWFOptions) ([]SubmittedJob, error) {
	conv := newSWFConverter(opts)
	var out []SubmittedJob
	for _, sj := range trace {
		if conv.done() {
			break
		}
		if j, ok := conv.convert(sj); ok {
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: swf trace contains no replayable jobs")
	}
	return out, nil
}
