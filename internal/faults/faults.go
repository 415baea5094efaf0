// Package faults is the seeded fault-injection engine: it perturbs a
// simulated machine with the three failure classes a production RUSH
// deployment must survive — node crashes (jobs killed, capacity lost),
// telemetry dropouts (missing and frozen LDMS samples), and predictor
// outages (the model service unreachable). All randomness derives from
// the simulation's root seed, so a faulted run is exactly as
// reproducible as a clean one, and a config with every rate at zero
// injects nothing at all: it neither schedules events nor consumes a
// single random draw, leaving clean runs bit-identical to a build
// without this package.
package faults

import (
	"fmt"
	"math"

	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sim"
)

// Config sets the fault rates. The zero value disables all injection.
type Config struct {
	// NodeMTBF is the per-node mean time between failures in seconds
	// (exponentially distributed); 0 disables node failures.
	NodeMTBF float64
	// NodeMTTR is the per-node mean time to repair in seconds (default
	// 1800 when NodeMTBF is set).
	NodeMTTR float64

	// TelemetryLoss is the probability that one table's sample from one
	// node at one tick is dropped, in [0, 1].
	TelemetryLoss float64
	// FreezeProb is the probability that a node's counters freeze for a
	// whole freeze window of 10 ticks (the sampler then repeats the
	// window's first tick — the classic stuck-collector failure), in
	// [0, 1].
	FreezeProb float64

	// ModelOutage is the long-run fraction of time the predictor service
	// is unreachable, in [0, 1]. Outages come and go in whole 600 s
	// periods: each is down with this probability. 1 means the model is
	// never reachable.
	ModelOutage float64
}

const (
	// freezeWindow is the length of a telemetry freeze in sampler ticks.
	freezeWindow int64 = 10
	// modelOutagePeriod is the outage granularity in seconds.
	modelOutagePeriod float64 = 600
)

func (c *Config) fill() {
	if c.NodeMTBF > 0 && c.NodeMTTR <= 0 {
		c.NodeMTTR = 1800
	}
}

// Validate rejects rates outside their domains, a value that is not a
// finite number first: a NaN fails every range comparison below.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"node MTBF", c.NodeMTBF}, {"node MTTR", c.NodeMTTR},
		{"telemetry loss", c.TelemetryLoss}, {"freeze probability", c.FreezeProb},
		{"model outage", c.ModelOutage},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s %v is not a finite number", f.name, f.v)
		}
	}
	switch {
	case c.NodeMTBF < 0:
		return fmt.Errorf("faults: negative node MTBF %v", c.NodeMTBF)
	case c.NodeMTTR < 0:
		return fmt.Errorf("faults: negative node MTTR %v", c.NodeMTTR)
	case c.TelemetryLoss < 0 || c.TelemetryLoss > 1:
		return fmt.Errorf("faults: telemetry loss %v outside [0, 1]", c.TelemetryLoss)
	case c.FreezeProb < 0 || c.FreezeProb > 1:
		return fmt.Errorf("faults: freeze probability %v outside [0, 1]", c.FreezeProb)
	case c.ModelOutage < 0 || c.ModelOutage > 1:
		return fmt.Errorf("faults: model outage %v outside [0, 1]", c.ModelOutage)
	}
	return nil
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.NodeMTBF > 0 || c.TelemetryLoss > 0 || c.FreezeProb > 0 || c.ModelOutage > 0
}

// Injector drives fault injection against one machine.
type Injector struct {
	cfg Config
	m   *machine.Machine
	src *sim.Source

	obs     *obs.Observer
	cFail   *obs.Counter
	cRepair *obs.Counter
	cKill   *obs.Counter

	// NodeFailures / NodeRepairs / JobKills count injected events.
	NodeFailures int
	NodeRepairs  int
	JobKills     int
}

// Observe attaches an observer: node failures and repairs emit
// node-down/node-up trace events and maintain fault counters in the
// metrics registry. Observation is pure bookkeeping — it draws no
// randomness and schedules nothing, so an observed run injects exactly
// the same faults as an unobserved one.
func (inj *Injector) Observe(o *obs.Observer) {
	inj.obs = o
	reg := o.Metrics()
	inj.cFail = reg.Counter("faults_node_failures_total")
	inj.cRepair = reg.Counter("faults_node_repairs_total")
	inj.cKill = reg.Counter("faults_job_kills_total")
}

// Attach wires cfg's fault classes into m, drawing all randomness from
// src (derive a dedicated child, e.g. eng.Source().Derive("faults"), so
// fault draws never perturb other components). Disabled classes are not
// wired at all: telemetry faults are only installed on the sampler when
// a telemetry rate is non-zero, and node-failure events are only
// scheduled when NodeMTBF is positive.
func Attach(m *machine.Machine, cfg Config, src *sim.Source) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	inj := &Injector{cfg: cfg, m: m, src: src}
	if cfg.TelemetryLoss > 0 || cfg.FreezeProb > 0 {
		m.Sampler.SetFaults(&telemetryFaults{cfg: cfg, src: src})
	}
	if cfg.NodeMTBF > 0 {
		for n := 0; n < m.Topo.Nodes; n++ {
			node := cluster.NodeID(n)
			// One independent stream per node: a node's failure history
			// depends only on the seed and its ID, not on how failures on
			// other nodes interleave.
			rng := src.DeriveN("node-life", n)
			m.Eng.Schedule(rng.Exponential(cfg.NodeMTBF), func() { inj.fail(node, rng) })
		}
	}
	return inj, nil
}

// ModelDown returns a predicate reporting whether the predictor service
// is unreachable at the machine's current time, or nil when outages are
// disabled. It is pure (hash-based): probing it never consumes
// randomness, so schedulers may call it any number of times. Wire it
// into a RUSH gate's ModelDown hook.
func (inj *Injector) ModelDown() func() bool {
	if inj.cfg.ModelOutage <= 0 {
		return nil
	}
	p := inj.cfg.ModelOutage
	return func() bool {
		k := uint64(inj.m.Eng.Now() / modelOutagePeriod)
		return inj.src.HashUnit(hashTag("model-outage"), k) < p
	}
}

func (inj *Injector) fail(node cluster.NodeID, rng *sim.Source) {
	kills, err := inj.m.FailNode(node)
	if err != nil {
		return // node already down (e.g. failed by a test by hand); skip this cycle
	}
	inj.NodeFailures++
	inj.JobKills += kills
	inj.cFail.Inc()
	inj.cKill.Add(uint64(kills))
	if inj.obs != nil {
		inj.obs.Emit(obs.Event{Time: inj.m.Eng.Now(), Kind: obs.KindNodeDown, Node: int(node), Kills: kills})
	}
	inj.m.Eng.Schedule(rng.Exponential(inj.cfg.NodeMTTR), func() { inj.repair(node, rng) })
}

func (inj *Injector) repair(node cluster.NodeID, rng *sim.Source) {
	if err := inj.m.RestoreNode(node); err != nil {
		return
	}
	inj.NodeRepairs++
	inj.cRepair.Inc()
	if inj.obs != nil {
		inj.obs.Emit(obs.Event{Time: inj.m.Eng.Now(), Kind: obs.KindNodeUp, Node: int(node)})
	}
	inj.m.Eng.Schedule(rng.Exponential(inj.cfg.NodeMTBF), func() { inj.fail(node, rng) })
}

// telemetryFaults implements telemetry.FaultModel with pure hashing:
// whether a sample is dropped or frozen depends only on (seed, table,
// node, tick), never on query order, so repeated aggregations over the
// same window agree with each other and with a rerun of the simulation.
type telemetryFaults struct {
	cfg Config
	src *sim.Source
}

// Dropped implements telemetry.FaultModel.
func (f *telemetryFaults) Dropped(table string, node cluster.NodeID, tick int64) bool {
	if f.cfg.TelemetryLoss <= 0 {
		return false
	}
	return f.src.HashUnit(hashTag("drop:"+table), uint64(node), uint64(tick)) < f.cfg.TelemetryLoss
}

// SampleTick implements telemetry.FaultModel: during a frozen window the
// collector keeps re-reporting the window's first sample.
func (f *telemetryFaults) SampleTick(node cluster.NodeID, tick int64) int64 {
	if f.cfg.FreezeProb <= 0 || tick < 0 {
		return tick
	}
	window := tick / freezeWindow
	if f.src.HashUnit(hashTag("freeze"), uint64(node), uint64(window)) < f.cfg.FreezeProb {
		return window * freezeWindow
	}
	return tick
}

// hashTag folds a string into one hash word (FNV-1a) so string-keyed
// fault draws can feed Source.Hash64's word list.
func hashTag(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(s) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
