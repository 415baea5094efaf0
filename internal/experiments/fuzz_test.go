package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"rush/internal/faults"
	"rush/internal/workload"
)

// FuzzReplayRecycling replays arbitrary SWF bytes twice under the canary
// gate and node failures: through a recycling SWFStream, whose finished
// records carry later jobs, and through the same jobs materialized first,
// each in a record of its own. The two must fail alike or agree on the
// summary and every trace byte; bytes the stream rejects partway must
// fail the recycling replay too. Inputs are capped
// at 2 KiB and runs at two simulated days so that one execution stays
// short.
func FuzzReplayRecycling(f *testing.F) {
	f.Add(replayFixture(f))
	f.Add(churnSWF()[:1<<11])
	f.Add([]byte("1 0 0 100 36\n2 0 0 100 576\n3 5 0 3000 18432\n4 5 0 50 36\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<11 {
			raw = raw[:1<<11]
		}
		opts := workload.SWFOptions{Seed: 1}
		cfg := Config{Trace: true, MaxSimTime: 2 * 86400, Faults: faults.Config{NodeMTBF: 10 * 3600, NodeMTTR: 600}}
		recycled, rerr := ReplayStream("fuzz", workload.NewSWFStream(bytes.NewReader(raw), opts), Canary, nil, 1, cfg)
		jobs, serr := materialize(raw, opts)
		if serr != nil {
			if rerr == nil {
				t.Fatalf("the stream fails with %v, the recycling replay does not", serr)
			}
			return
		}
		fresh, ferr := ReplayStream("fuzz", workload.NewSliceStream(jobs), Canary, nil, 1, cfg)
		if (rerr == nil) != (ferr == nil) || (rerr != nil && rerr.Error() != ferr.Error()) {
			t.Fatalf("recycled records fail with %v, fresh ones with %v", rerr, ferr)
		}
		if rerr != nil {
			return
		}
		if !bytes.Equal(recycled.Trace, fresh.Trace) {
			t.Fatalf("recycled and fresh records trace differently:\n%s", firstTraceDiff(recycled.Trace, fresh.Trace))
		}
		rs, fs := *recycled, *fresh
		rs.Trace, fs.Trace = nil, nil
		if !reflect.DeepEqual(rs, fs) {
			t.Fatalf("summaries differ:\n recycled %+v\n fresh    %+v", rs, fs)
		}
	})
}
