package sched

import (
	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/simnet"
)

// Canary is a model-free gate in the spirit of the canary-job approach
// the paper cites as related work: before launching a job, run the MPI
// probe benchmarks on the tentative nodes and delay the job when they run
// slower than a multiple of their idle-network time. It serves as the
// heuristic baseline against which RUSH's learned gate is compared — it
// reacts to the same live signal but cannot weigh it per application or
// combine it with counter history. Like the canary literature, it gates
// only network- and I/O-intensive jobs; compute-intensive ones start.
type Canary struct {
	// Ledger books the canary's decisions like any other gate's; having
	// no model, its gate events carry class -1 and it never fails open.
	Ledger

	m *machine.Machine
}

// canarySlowdown is the canary's veto threshold: it delays a job when the
// probes run this many times slower than on an idle network.
const canarySlowdown = 1.6

// NewCanary returns a canary gate over machine m.
func NewCanary(m *machine.Machine) *Canary {
	return &Canary{m: m}
}

// Name implements Gate.
func (g *Canary) Name() string { return "Canary" }

// Allow implements Gate: the skip-threshold override of Algorithm 2, then
// the probe slowdown signal in the model's place.
func (g *Canary) Allow(j *Job, alloc cluster.Allocation) bool {
	now := g.m.Eng.Now()
	if j.Skips >= j.SkipLimit() {
		return g.Record(now, j, NewVerdict(obs.DecisionOverride, ""))
	}
	if j.App.Class == apps.ComputeIntensive {
		return true
	}
	probes := g.m.RunProbes(alloc)
	// Mean per-node probe time versus the idle expectation.
	var sum float64
	for i := range probes.SendWait {
		sum += probes.SendWait[i] + probes.RecvWait[i] + probes.AllReduceWait[i]
	}
	mean := sum / float64(len(probes.SendWait))
	veto := mean > canarySlowdown*simnet.ProbeIdleDuration()
	return g.Record(now, j, NewVerdict("", "").Decided(veto, -1))
}
