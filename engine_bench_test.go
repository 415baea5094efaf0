package rush

// BenchmarkEngineMonth is the whole-machine engine benchmark behind
// BENCH_engine.json and the `make bench-engine` CI gate: a month-long
// job stream on the full 2,988-node Quartz machine (and the synthetic
// 4,096-node, 8-pod stress shape), scheduled end to end under the
// baseline policy, through the sharded dirty-lane contention engine with
// pooled job state. The full-recompute executor it is differential-tested
// against (TestEngineDifferentialAcrossTopologies) is reachable only from
// in-package tests; BENCH_engine.json keeps its last measured rows.

import (
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/experiments"
	"rush/internal/sched"
	"rush/internal/sim"
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
