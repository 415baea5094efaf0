package rush

// BenchmarkEngineMonth is the whole-machine engine benchmark behind
// BENCH_engine.json and the `make bench-engine` CI gate: a month-long
// job stream on the full 2,988-node Quartz machine (and the synthetic
// 4,096-node, 8-pod stress shape), scheduled end to end under the
// baseline policy, through the sharded dirty-lane contention engine with
// pooled job state. The full-recompute oracle it is held to is the shadow
// check of internal/machine/lanes_test.go; BENCH_engine.json keeps the
// last measured rows of the executor that used to run it.

import (
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/experiments"
	"rush/internal/machine"
	"rush/internal/sched"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// engineBenchDays is the simulated horizon: one month of submissions.
const engineBenchDays = 30

// monthStream generates a month of capacity-computing submissions at
// ~25s mean interarrival (≈100k jobs): the seven proxy apps stretched
// to hour-scale run times with class-dependent allocation sizes —
// compute-bound codes take the larger allocations, IO-intensive codes
// stay small so aggregate filesystem load hovers at its congestion
// threshold (intermittent contention) instead of deep in the convex
// overload regime where offered demand would outrun machine capacity.
// The machine sits near half utilization with a couple hundred
// concurrent jobs, which is what makes the contention engine's
// per-change work visible. Fresh per run — the scheduler mutates
// submitted jobs.
func monthStream(topo cluster.Topology, seed int64) []workload.SubmittedJob {
	rng := sim.NewSource(seed).Derive("engine-month")
	profiles := apps.Defaults()
	sizesByClass := map[apps.Class][]int{
		apps.ComputeIntensive: {2, 4, 8, 16, 32},
		apps.NetworkIntensive: {1, 2, 4, 8},
		apps.IOIntensive:      {1, 2},
	}
	horizon := float64(engineBenchDays) * 86400
	var jobs []workload.SubmittedJob
	at := 0.0
	for i := 0; ; i++ {
		at += rng.Exponential(25)
		if at > horizon {
			return jobs
		}
		p := profiles[i%len(profiles)]
		sizes := sizesByClass[p.Class]
		n := sizes[(i/len(profiles))%len(sizes)]
		if n > topo.Nodes/4 {
			n = topo.Nodes / 4
		}
		base := p.BaseTime(n, apps.ReferenceScale) * rng.Uniform(12, 24)
		jobs = append(jobs, workload.SubmittedJob{
			Job: &sched.Job{
				ID: i, App: p, Nodes: n, BaseWork: base,
				Estimate: base * rng.Uniform(workload.EstimateFactorRange[0], workload.EstimateFactorRange[1]),
			},
			SubmitAt: at,
		})
	}
}

func benchEngineMonth(b *testing.B, topo cluster.Topology) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jobs := monthStream(topo, 4242)
		b.StartTimer()
		tr, err := experiments.RunTrialJobs("engine-month", jobs, experiments.Baseline, nil, 4242, experiments.Config{
			Topo:       topo,
			MaxSimTime: 2 * float64(engineBenchDays) * 86400,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Jobs) != len(jobs) {
			b.Fatalf("completed %d of %d jobs", len(tr.Jobs), len(jobs))
		}
		b.ReportMetric(float64(len(jobs)), "jobs/op")
	}
}

func BenchmarkEngineMonth(b *testing.B) {
	b.Run("quartz/fast", func(b *testing.B) { benchEngineMonth(b, cluster.Quartz()) })
	b.Run("synthetic4096/fast", func(b *testing.B) { benchEngineMonth(b, cluster.Synthetic(4096, 512)) })
}

// BenchmarkContentionChange prices one contention change on a saturated
// machine, the unit of work replay-saturated is made of: full Quartz
// with 760 running jobs (the seven proxy apps on 1 to 8 nodes), the
// filesystem held past its threshold by an ambient load, and a
// job-sized load applied and withdrawn in turn, as a start and a finish
// do. Every Apply and every Remove moves the filesystem factor, so each
// is an all-lanes change: 760 slowdowns recomputed, 760 jobs integrated,
// 760 completion events re-timed, and the event heap rebuilt when the
// clock next moves. One op is one change. Nothing in it allocates: the
// history copies the pod loads into a ring slot the prune released, and
// `make bench-engine` fails on anything but 0 allocs/op.
func BenchmarkContentionChange(b *testing.B) {
	b.Run("quartz/saturated", func(b *testing.B) {
		topo := cluster.Quartz()
		eng := sim.New(7)
		m, err := machine.New(eng, topo)
		if err != nil {
			b.Fatal(err)
		}
		m.PoolJobs = true
		profiles := apps.Defaults()
		sizes := []int{1, 2, 4, 8}
		for i := 0; i < 760; i++ {
			alloc, err := m.Alloc.Alloc(sizes[i%len(sizes)])
			if err != nil {
				b.Fatal(err)
			}
			m.StartJob(profiles[i%len(profiles)], alloc, 1e12, nil)
		}
		m.NewBackground().Set(simnet.Contribution{FS: 1.0})
		m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
		job := simnet.Contribution{PodNet: map[int]float64{3: 0.01}, FS: 0.004}
		change := func(i int) {
			if i&1 == 0 {
				m.Net.Apply(job)
			} else {
				m.Net.Remove(job)
			}
			eng.RunUntil(eng.Now() + 1)
		}
		for i := 0; i < 64; i++ {
			change(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			change(i)
		}
		b.StopTimer()
		if m.Running() != 760 {
			b.Fatalf("%d jobs running, want 760", m.Running())
		}
		b.ReportMetric(760, "jobs/change")
	})
}
