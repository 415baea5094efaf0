package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rush/internal/cluster"
	"rush/internal/faults"
	"rush/internal/workload"
)

// FuzzReplayRecycling replays arbitrary SWF bytes twice under the canary
// gate and node failures: through a recycling SWFStream, whose finished
// records carry later jobs, and through the same jobs materialized first,
// each in a record of its own. The two must fail alike or agree on the
// summary and every trace byte; bytes the stream rejects partway must
// fail the recycling replay too.
//
// One execution is bounded three ways. Runs stop at two simulated days.
// The machine is fuzzTopo, 16 nodes in four pods, and larger jobs are
// dropped: a trial seeds one failure stream per node, and on the default
// 512-node pod that seeding alone took 15 ms of each execution's 16.
// Inputs are cut to maxReplayInput bytes, under a dozen records. The
// fuzzer minimizes each new input by trying to remove every run of its
// bytes, quadratic in its length at over a millisecond an execution, so
// a ten-second run from an empty corpus sat at 0 execs/s; make
// fuzz-smoke stops each minimization after 100 executions.
func FuzzReplayRecycling(f *testing.F) {
	f.Add(wholeRecords(replayFixture(f)))
	f.Add(wholeRecords(churnSWF()))
	f.Add(abortSeed)
	f.Fuzz(func(t *testing.T, raw []byte) { replayRecycled(t, raw) })
}

// abortSeed's third record asks for the whole machine, which the noise
// job never leaves free, so both replays stop at MaxSimTime and must
// fail with the same message and counts.
var abortSeed = []byte("1 0 0 100 36\n2 0 0 100 540\n3 5 0 3000 576\n4 5 0 50 36\n")

// TestReplayRecyclingAbortsAlike holds FuzzReplayRecycling's seeds to
// the path where both replays fail.
func TestReplayRecyclingAbortsAlike(t *testing.T) {
	err := replayRecycled(t, abortSeed)
	if err == nil || !strings.Contains(err.Error(), "trial exceeded") {
		t.Fatalf("abortSeed replays end with %v, want both to exceed MaxSimTime", err)
	}
}

// replayRecycled runs FuzzReplayRecycling's check on raw and returns the
// error both replays failed with, or nil.
func replayRecycled(t *testing.T, raw []byte) error {
	t.Helper()
	raw = raw[:min(len(raw), maxReplayInput)]
	opts := workload.SWFOptions{Seed: 1, MaxNodes: fuzzTopo.Nodes}
	cfg := Config{Topo: fuzzTopo, Trace: true, MaxSimTime: 2 * 86400, Faults: faults.Config{NodeMTBF: 10 * 3600, NodeMTTR: 600}}
	recycled, rerr := ReplayStream("fuzz", workload.NewSWFStream(bytes.NewReader(raw), opts), Canary, nil, 1, cfg)
	jobs, serr := materialize(raw, opts)
	if serr != nil {
		if rerr == nil {
			t.Fatalf("the stream fails with %v, the recycling replay does not", serr)
		}
		return nil
	}
	fresh, ferr := ReplayStream("fuzz", workload.NewSliceStream(jobs), Canary, nil, 1, cfg)
	if (rerr == nil) != (ferr == nil) || (rerr != nil && rerr.Error() != ferr.Error()) {
		t.Fatalf("recycled records fail with %v, fresh ones with %v", rerr, ferr)
	}
	if rerr != nil {
		return rerr
	}
	if !bytes.Equal(recycled.Trace, fresh.Trace) {
		t.Fatalf("recycled and fresh records trace differently:\n%s", firstTraceDiff(recycled.Trace, fresh.Trace))
	}
	rs, fs := *recycled, *fresh
	rs.Trace, fs.Trace = nil, nil
	if !reflect.DeepEqual(rs, fs) {
		t.Fatalf("summaries differ:\n recycled %+v\n fresh    %+v", rs, fs)
	}
	return nil
}

// fuzzTopo is FuzzReplayRecycling's machine and maxReplayInput its
// longest input.
var fuzzTopo = cluster.Topology{Nodes: 16, PodSize: 4, CoresPerNode: 36}

const maxReplayInput = 512

// wholeRecords cuts an SWF trace to the whole lines of its first
// maxReplayInput bytes.
func wholeRecords(swf []byte) []byte {
	return swf[:bytes.LastIndexByte(swf[:min(len(swf), maxReplayInput)], '\n')+1]
}
