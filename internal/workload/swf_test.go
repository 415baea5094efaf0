package workload

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"rush/internal/sched"
)

const sampleSWF = `; SWF format, version 2
; Computer: test cluster
1 0 10 300.5 72 -1 -1 72 600 -1 1 3 1 2 1 -1 -1 -1
2 60 0 120 36 -1 -1 36 -1 -1 1 4 1 5 1 -1 -1 -1
3 120 5 -1 36 -1 -1 36 300 -1 0 4 1 5 1 -1 -1 -1
4 180 5 50 -1 -1 -1 144 300 -1 1 4 1 -1 1 -1 -1 -1
5 240 5 40 100000 -1 -1 100000 300 -1 1 4 1 1 1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	jobs, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 dropped (run time -1); jobs 1, 2, 4, 5 kept.
	if len(jobs) != 4 {
		t.Fatalf("parsed %d jobs, want 4", len(jobs))
	}
	if jobs[0].ID != 1 || jobs[0].RunTime != 300.5 || jobs[0].Procs != 72 || jobs[0].ReqTime != 600 {
		t.Fatalf("job 1 wrong: %+v", jobs[0])
	}
	// Job 4's allocated procs was -1; falls back to requested (144).
	if jobs[2].Procs != 144 {
		t.Fatalf("job 4 procs = %d, want 144 (fallback)", jobs[2].Procs)
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("short record should error")
	}
	if _, err := ParseSWF(strings.NewReader(strings.Repeat("x ", 18) + "\n")); err == nil {
		t.Fatal("non-numeric record should error")
	}
	jobs, err := ParseSWF(strings.NewReader("; only comments\n"))
	if err != nil || len(jobs) != 0 {
		t.Fatal("comment-only trace should parse to empty")
	}
}

func TestFromSWF(t *testing.T) {
	trace, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := FromSWF(trace, SWFOptions{CoresPerNode: 36, MaxNodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Job 5 (100000 procs -> 2778 nodes) dropped by MaxNodes.
	if len(jobs) != 3 {
		t.Fatalf("converted %d jobs, want 3", len(jobs))
	}
	j0 := jobs[0]
	if j0.Job.Nodes != 2 { // 72 procs / 36 cores
		t.Fatalf("job 0 nodes = %d", j0.Job.Nodes)
	}
	if j0.Job.BaseWork != 300.5 || j0.Job.Estimate != 600 {
		t.Fatalf("job 0 work/estimate wrong: %+v", j0.Job)
	}
	if j0.SubmitAt != 0 {
		t.Fatalf("first job should submit at 0, got %v", j0.SubmitAt)
	}
	if jobs[1].SubmitAt != 60 {
		t.Fatalf("submit offsets wrong: %v", jobs[1].SubmitAt)
	}
	// Job 2 had no requested time: estimate falls back to 1.5x.
	if math.Abs(jobs[1].Job.Estimate-180) > 1e-9 {
		t.Fatalf("fallback estimate = %v", jobs[1].Job.Estimate)
	}
	// Same executable -> same app profile.
	if jobs[0].Job.App.Name == "" || jobs[1].Job.App.Name == "" {
		t.Fatal("app profiles not assigned")
	}
}

func TestFromSWFStableAppAssignment(t *testing.T) {
	trace := []SWFJob{
		{ID: 1, Submit: 0, RunTime: 100, Procs: 36, ExecutableID: 7},
		{ID: 2, Submit: 10, RunTime: 100, Procs: 36, ExecutableID: 7},
		{ID: 3, Submit: 20, RunTime: 100, Procs: 36, ExecutableID: 8},
	}
	jobs, err := FromSWF(trace, SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Job.App.Name != jobs[1].Job.App.Name {
		t.Fatal("same executable must map to the same application profile")
	}
	if jobs[0].Job.App.Name == jobs[2].Job.App.Name {
		t.Fatal("different executables should usually differ")
	}
}

func TestFromSWFEmpty(t *testing.T) {
	if _, err := FromSWF(nil, SWFOptions{}); err == nil {
		t.Fatal("empty trace should error")
	}
}

// TestJobChunkFitsSizeClass keeps the converter's job chunk within the
// runtime's largest small-object size class: one more word on sched.Job
// would push the chunk onto whole pages, a quarter more heap per chunk.
func TestJobChunkFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(sched.Job{}) * jobChunk; size > 32<<10 {
		t.Fatalf("%d jobs of %d bytes take %d bytes, past the 32 KiB size class", jobChunk, unsafe.Sizeof(sched.Job{}), size)
	}
}
