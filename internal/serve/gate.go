package serve

import (
	"fmt"

	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sched"
)

// Gate is a sched.Gate whose decisions come from a serve daemon instead
// of an in-process model. What stays on this side is what lives with the
// simulated machine: sched.Features measures telemetry freshness and
// assembles the live feature vector (counters and probes), and
// sched.Ledger books the daemon's verdicts exactly as it books the
// in-process gate's. The sched.Pipeline itself runs in the daemon, reached
// by the wire protocol's two-phase check/eval exchange. The split keeps
// probe randomness at parity with the in-process RUSH gate: probes run
// only when the server answers DecisionEvaluate, exactly the cases in
// which RUSH.Allow would have reached LiveFeatures.
//
// A daemon that cannot be asked is handled fail-open and in the open: a
// transport failure sticks (Err is set), and that decision and every
// later one, like any BUSY or error answer, is booked as fail-open with
// obs.ReasonModelDown, so the job launches as under the FCFS+EASY
// baseline and the trace and the Degraded count say why. A dead
// prediction service must never stall the queue, nor pass for a clean
// baseline run.
type Gate struct {
	// Features carries AllNodesScope, with the meaning it has on
	// sched.RUSH, for both the freshness measurement and the vector.
	sched.Features
	sched.Ledger

	m      *machine.Machine
	client *Client

	// Down reports a client-observed predictor outage (fault-injection
	// hook, mirroring sched.RUSH.ModelDown).
	Down func() bool
	// MaxStaleness mirrors the server's staleness threshold: when
	// positive, the gate measures telemetry freshness locally and ships
	// the age with each check. It must match the server's configuration
	// for decision parity (default 90, the shared default).
	MaxStaleness float64
	// Err is the sticky transport error; once set, the daemon is no
	// longer asked.
	Err error
}

// NewGate returns a remote gate over machine m speaking to client.
func NewGate(m *machine.Machine, client *Client) *Gate {
	return &Gate{Features: sched.NewFeatures(m), m: m, client: client, MaxStaleness: 90}
}

// Name implements sched.Gate. It reports the decision algorithm ("RUSH"),
// not the transport: a served gate is the same gate.
func (g *Gate) Name() string { return "RUSH" }

// Allow implements sched.Gate: the daemon's verdict, booked.
func (g *Gate) Allow(j *sched.Job, alloc cluster.Allocation) bool {
	now := g.m.Eng.Now()
	return g.Record(now, j, g.ask(now, j, alloc), nil, nil)
}

// ask runs the two-phase exchange: OpCheck carries the decision context
// (skip state, outage flag, locally measured telemetry age); only a
// DecisionEvaluate answer makes the gate gather features, running the MPI
// probes, which draw simulation randomness, and send OpEval. Without a
// usable answer the verdict is fail-open, the predictor service being
// unreachable.
func (g *Gate) ask(now float64, j *sched.Job, alloc cluster.Allocation) sched.Verdict {
	unreachable := sched.NewVerdict(obs.DecisionFailOpen, obs.ReasonModelDown)
	if g.Err != nil {
		return unreachable
	}
	req := Request{
		Op:        OpCheck,
		Now:       now,
		Job:       j.ID,
		App:       j.App.Name,
		Class:     int(j.App.Class),
		Skips:     j.Skips,
		SkipLimit: j.SkipThreshold,
		Down:      g.Down != nil && g.Down(),
	}
	localAge := -1.0
	if g.MaxStaleness > 0 {
		localAge = g.FreshnessAge(alloc)
		wireAge := WireAge(localAge)
		req.Age = &wireAge
	}
	resp, err := g.client.Do(&req)
	if err == nil && resp.Status == StatusOK && resp.Decision == DecisionEvaluate {
		resp, err = g.client.Do(&Request{
			Op:    OpEval,
			Now:   now,
			Job:   j.ID,
			App:   j.App.Name,
			Class: int(j.App.Class),
			Skips: j.Skips,
			Feats: FeatureVector(g.LiveFeatures(alloc, j.App.Class)),
			Age:   req.Age,
		})
	}
	if err != nil {
		g.Err = err
		return unreachable
	}
	if resp.Status != StatusOK {
		// BUSY and server-side errors degrade open without poisoning the
		// connection; the next decision tries again.
		return unreachable
	}
	switch resp.Decision {
	case obs.DecisionOverride, obs.DecisionFailOpen, obs.DecisionVeto, obs.DecisionStart:
	default:
		g.Err = fmt.Errorf("serve: unexpected decision %q", resp.Decision)
		return unreachable
	}
	// The wire clamps +Inf ages; trace the true local measurement.
	age := resp.Age
	if age >= 0 {
		age = localAge
	}
	return sched.Verdict{Decision: resp.Decision, Reason: resp.Reason, Class: resp.Class, Age: age, Missing: resp.Missing}
}
