package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// nonFiniteTrace is three well-formed records whose middle one has an
// infinite run time: "inf" parses as a number, so the record reaches
// replayableSWF, and a job of infinite work never completes.
const nonFiniteTrace = "1 0 0 100 36 -1 -1 36 200\n2 10 0 inf 36 -1 -1 36 200\n3 20 0 50 36 -1 -1 36 nan\n"

// TestNonFiniteRecordsAreSkipped pins the guard on both loaders: the
// record with an infinite run time is skipped and counted, and a "nan"
// requested time gives way to the 1.5x fallback estimate.
func TestNonFiniteRecordsAreSkipped(t *testing.T) {
	st := NewSWFStream(bytes.NewReader([]byte(nonFiniteTrace)), SWFOptions{})
	jobs := drainStream(t, st)
	if len(jobs) != 2 || st.Skipped() != 1 {
		t.Fatalf("stream yielded %d jobs and skipped %d, want 2 and 1", len(jobs), st.Skipped())
	}
	if jobs[1].Job.BaseWork != 50 || jobs[1].Job.Estimate != 75 {
		t.Fatalf("job after the skipped record: work %v estimate %v, want 50 and 75", jobs[1].Job.BaseWork, jobs[1].Job.Estimate)
	}
	trace, err := ParseSWF(bytes.NewReader([]byte(nonFiniteTrace)))
	if err != nil || len(trace) != 2 {
		t.Fatalf("in-memory loader kept %d of 3 records (err %v), want 2", len(trace), err)
	}
	ref, err := FromSWF(trace, SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameJobs(t, jobs, ref)

	// The other fields a replay orders or integrates by: submit time and
	// a run time whose fallback estimate would overflow.
	for _, line := range []string{"1 nan 0 100 36", "1 inf 0 100 36", "1 0 0 nan 36", "1 0 0 1.7e308 36"} {
		sc := NewSWFScanner(bytes.NewReader([]byte(line + "\n")))
		if sc.Scan() || sc.Err() != nil || sc.Skipped() != 1 {
			t.Errorf("%q: scanned a record or failed (err %v, skipped %d), want it skipped", line, sc.Err(), sc.Skipped())
		}
	}
}

// FuzzSWFStream feeds arbitrary bytes to both SWF loaders. Neither may
// panic; they must agree, on the jobs or on there being an error (the
// stream reports it after the jobs that precede it, the in-memory loader
// instead of any); and every job either emits must be one the replay
// driver can run: finite positive work, a finite estimate no shorter,
// submit times that never go backwards.
func FuzzSWFStream(f *testing.F) {
	excerpt, err := os.ReadFile(filepath.Join("testdata", "excerpt.swf"))
	if err != nil {
		f.Fatal(err)
	}
	malformed, err := os.ReadFile(filepath.Join("testdata", "malformed.swf"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		excerpt, malformed, []byte(nonFiniteTrace),
		[]byte(";header\n\n1 2 3\n"),
		bytes.Repeat([]byte("1 "), 19),
		[]byte("7 100 3 88.5 36\n"),
		[]byte("1 0 0 100 36 -1 -1 36 200"), // no trailing newline
		[]byte("1 50 0 10 36\r\n2 40 0 1e3 72\r\n"),
		[]byte("1 -5 0 0x1p4 +36 . -\n"),
		[]byte("1 1e308 0 1e308 99999999999999999999 -1 -1 -1 inf\n2 0 0 1 1\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewSWFStream(bytes.NewReader(data), SWFOptions{Seed: 3})
		var jobs []SubmittedJob
		var streamErr error
		for {
			j, ok, err := st.Next()
			if err != nil {
				streamErr = err
				break
			}
			if !ok {
				break
			}
			jobs = append(jobs, j)
		}
		last := 0.0
		for i, j := range jobs {
			w, e := j.Job.BaseWork, j.Job.Estimate
			if !(w > 0) || math.IsInf(w, 1) || math.IsInf(e, 1) || !(e >= w) {
				t.Fatalf("job %d: base work %v, estimate %v", i, w, e)
			}
			if !(j.SubmitAt >= last) || math.IsInf(j.SubmitAt, 1) {
				t.Fatalf("job %d submits at %v after %v", i, j.SubmitAt, last)
			}
			last = j.SubmitAt
		}

		trace, parseErr := ParseSWF(bytes.NewReader(data))
		if (parseErr != nil) != (streamErr != nil) {
			t.Fatalf("stream error %v, in-memory error %v", streamErr, parseErr)
		}
		if parseErr != nil {
			return
		}
		ref, err := FromSWF(trace, SWFOptions{Seed: 3})
		if err != nil {
			// FromSWF's one error: nothing in the trace can be replayed.
			if len(jobs) != 0 {
				t.Fatalf("stream yielded %d jobs, in-memory loader: %v", len(jobs), err)
			}
			return
		}
		sameJobs(t, jobs, ref)
	})
}
