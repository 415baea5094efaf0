package sched

import (
	"slices"
	"testing"
	"unsafe"

	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/sim"
)

// grant is a node list a gate let a job start on, and a copy of the
// nodes it named then.
type grant struct{ nodes, want []cluster.NodeID }

// coinGate vetoes a job with probability p while its skip threshold
// allows, from its own random stream; it counts its vetoes and keeps the
// grant of every start it allows.
type coinGate struct {
	rng     *sim.Source
	p       float64
	vetoes  *int
	granted map[*Job]grant
}

func (g coinGate) Allow(j *Job, alloc cluster.Allocation) bool {
	if j.Skips < j.SkipLimit() && g.rng.Float64() < g.p {
		*g.vetoes++
		return false
	}
	g.granted[j] = grant{alloc.Nodes, slices.Clone(alloc.Nodes)}
	return true
}

func (coinGate) Name() string { return "coin" }

// overlaps reports whether two node lists share backing memory anywhere
// within their capacities.
func overlaps(a, b []cluster.NodeID) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(cluster.NodeID(0))
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// TestRecycledNodeListsNeverShareMemory replays a random stream the way
// experiments.ReplayStream runs a recycling workload.SWFStream: runs
// pooled, so each start writes its nodes into a finished run's list
// (Machine.SpareNodes), completed jobs discarded, and each finished
// record overwritten for a later job. Vetoes, node failures, requeues
// and retry-exhausted failures come and go. After every engine step no
// two running jobs' node lists may share backing memory, and each must
// still name the nodes it was granted when it started.
func TestRecycledNodeListsNeverShareMemory(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		eng := sim.New(seed)
		m, err := machine.New(eng, cluster.Synthetic(96, 16))
		if err != nil {
			t.Fatal(err)
		}
		m.PoolJobs = true
		rng := eng.Source().Derive("test")
		var vetoes, requeued, failed int
		gate := coinGate{rng: rng.Derive("gate"), p: 0.3, vetoes: &vetoes, granted: map[*Job]grant{}}
		s := newSched(m, FCFS{}, gate)
		s.DiscardCompleted = true
		var free []*Job
		s.OnComplete = func(j *Job) {
			if j.Failed {
				failed++
			} else if j.Retries > 0 {
				requeued++
			}
			free = append(free, j)
		}

		const jobs = 600
		at, records := 0.0, 0
		for i := range jobs {
			at += rng.Exponential(100)
			eng.At(at, func() {
				var j *Job
				if n := len(free); n > 0 {
					j, free = free[n-1], free[:n-1]
				} else {
					j = new(Job)
					records++
				}
				work := 100 + 400*rng.Float64()
				*j = Job{ID: i, App: steadyApp(), Nodes: 1 + rng.Intn(40), BaseWork: work,
					Estimate: 1.5 * work, RetryBudget: rng.Intn(3) - 1}
				if err := s.Submit(j); err != nil {
					t.Error(err)
				}
			})
		}
		for tf := 0.0; tf < at; tf += 200 {
			node := cluster.NodeID(rng.Intn(96))
			eng.At(tf, func() { m.FailNode(node) })
			eng.At(tf+90, func() { m.RestoreNode(node) })
		}

		for s.CompletedCount() < jobs {
			if !eng.Step() {
				t.Fatalf("seed %d: engine drained with %d of %d jobs done", seed, s.CompletedCount(), jobs)
			}
			for a, ja := range s.running {
				ga := gate.granted[ja]
				if !slices.Equal(ga.nodes, ga.want) {
					t.Fatalf("seed %d: job %d's node list changed while it ran: %v, granted %v", seed, ja.ID, ga.nodes, ga.want)
				}
				for _, jb := range s.running[a+1:] {
					if overlaps(ga.nodes, gate.granted[jb].nodes) {
						t.Fatalf("seed %d: running jobs %d and %d share node-list memory", seed, ja.ID, jb.ID)
					}
				}
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if vetoes == 0 || requeued == 0 || failed == 0 || records >= jobs/5 {
			t.Fatalf("seed %d: %d vetoes, %d requeued and %d failed jobs, %d records for %d jobs: the replay must reuse records through all three",
				seed, vetoes, requeued, failed, records, jobs)
		}
	}
}
