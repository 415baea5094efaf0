// Package core wires the RUSH pipeline together: the longitudinal
// data-collection campaign that runs proxy applications against ambient
// cluster contention (Section III), the model selection and training
// stage (Section IV-A), and helpers to hand the trained predictor to the
// scheduler (Section IV-B).
package core

import (
	"fmt"
	"math"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/dataset"
	"rush/internal/machine"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// Day is one simulated day in seconds.
const Day = 86400.0

// CollectConfig controls a collection campaign. The defaults reproduce
// the paper's campaign shape: months of runs, two to three per app per
// day, on a multi-pod slice of the machine, including a high-contention
// incident mid-campaign (the paper's mid-December spike). The control
// jobs are always the seven proxy applications of apps.Defaults, and the
// ambient contention is the fixed process described at ambient.
type CollectConfig struct {
	// Days is the campaign length (default 120).
	Days int
	// Topo is the machine the campaign runs on (default QuartzSlice).
	Topo cluster.Topology
	// Nodes is the per-run node count (default 16, as in the paper). It
	// may not exceed Topo.Nodes.
	Nodes int
	// Seed drives every stochastic component of the campaign.
	Seed int64
	// Incident enables a two-week high-contention window in the middle
	// of the campaign.
	Incident bool
}

// QuartzSlice is the collection topology: four 192-node pods, a slice of
// the 2,988-node Quartz machine large enough for pod-level contention
// structure without simulating every node.
func QuartzSlice() cluster.Topology {
	return cluster.Topology{Nodes: 768, PodSize: 192, CoresPerNode: 36}
}

func (c *CollectConfig) fill() {
	if c.Days <= 0 {
		c.Days = 120
	}
	if c.Topo.Nodes == 0 {
		c.Topo = QuartzSlice()
	}
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
}

// The ambient contention the rest of the machine generates: a diurnal
// swing and a small wandering burst component, plus an episodic
// congestion process — on a real machine contention arrives as discrete
// episodes (a checkpoint storm, a misbehaving job) that last on the
// order of hours, and those episodes are what the variability predictor
// learns to recognize. Everything is shared across pods with small
// per-pod deviations because congestion correlates cluster-wide.
const (
	ambientBase        float64 = 0.42  // mean network load
	ambientDiurnalAmp  float64 = 0.10  // amplitude of the day/night swing
	ambientBurstSigma  float64 = 0.020 // innovation scale of the shared burst process
	ambientPodSigma    float64 = 0.012 // per-pod deviation scale
	ambientFSBase      float64 = 0.38  // mean filesystem load
	incidentBoost      float64 = 0.26  // load added during the incident window
	ambientUpdateEvery float64 = 300   // refresh period, seconds
	// ambientPersistence is the AR(1) coefficient of the burst
	// processes per update step.
	ambientPersistence float64 = 0.95
	episodeEvery       float64 = 10 * 3600  // mean time between episodes, seconds
	episodeDuration    float64 = 1.5 * 3600 // mean length of one episode, seconds
	// Each episode's extra load is drawn uniformly from
	// [episodeLoadMin, episodeLoadMax).
	episodeLoadMin float64 = 0.30
	episodeLoadMax float64 = 0.60
)

// CollectResult carries the two datasets the paper compares: features
// aggregated over the job's own nodes versus over the whole machine.
type CollectResult struct {
	// JobScope aggregates counters over each run's allocated nodes.
	JobScope *dataset.Dataset
	// AllScope aggregates counters over the entire machine.
	AllScope *dataset.Dataset
}

// Collect runs the longitudinal campaign and returns the assembled
// datasets. It is deterministic for a given configuration.
func Collect(cfg CollectConfig) (*CollectResult, error) {
	cfg.fill()
	if cfg.Nodes > cfg.Topo.Nodes {
		return nil, fmt.Errorf("core: %d nodes per run exceed the %d-node machine", cfg.Nodes, cfg.Topo.Nodes)
	}
	eng := sim.New(cfg.Seed)
	m, err := machine.New(eng, cfg.Topo)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res := &CollectResult{JobScope: &dataset.Dataset{}, AllScope: &dataset.Dataset{}}

	amb := newAmbient(m, cfg)
	amb.start()

	// Schedule each app's control runs: two or three per day at
	// staggered times, as in the paper's August-February campaign.
	runRng := eng.Source().Derive("collect-runs")
	horizon := float64(cfg.Days) * Day
	var errs []error
	allNodes := telemetry.AllNodes(m.Topo)
	for ai, profile := range apps.Defaults() {
		profile := profile
		rng := runRng.DeriveN("app", ai)
		for d := 0; d < cfg.Days; d++ {
			runs := 2 + (d+ai)%2 // alternate 2 and 3 runs per day
			for r := 0; r < runs; r++ {
				at := float64(d)*Day + rng.Uniform(0.05, 0.95)*Day
				eng.At(at, func() {
					if err := collectOneRun(m, profile, cfg.Nodes, allNodes, res); err != nil {
						errs = append(errs, err)
					}
				})
			}
		}
	}
	// Prune telemetry history hourly to bound memory over long campaigns.
	m.StartPruning(3600, 2*telemetry.WindowSeconds)

	eng.RunUntil(horizon + 2*3600) // let the final runs drain
	amb.stop()
	if len(errs) > 0 {
		return nil, fmt.Errorf("core: collection campaign: %w", errs[0])
	}
	return res, nil
}

// collectOneRun performs one control-job run: aggregate the five minutes
// of counters before the run (both scopes; allNodes is the machine-wide
// one), run the MPI probes, launch the job, and record the sample when it
// completes.
func collectOneRun(m *machine.Machine, profile apps.Profile, nodes int, allNodes []cluster.NodeID, res *CollectResult) error {
	alloc, err := m.Alloc.Alloc(nodes)
	if err != nil {
		// The slice is briefly full (many overlapping control runs);
		// skip this run rather than fail the campaign.
		return nil
	}
	now := m.Eng.Now()
	hist := m.Net.History()
	aggJob := m.Sampler.AggregateWindow(hist, alloc.Nodes, now)
	aggAll := m.Sampler.AggregateWindow(hist, allNodes, now)
	probes := m.RunProbes(alloc)
	featJob := dataset.BuildFeatures(aggJob, probes, profile.Class)
	featAll := dataset.BuildFeatures(aggAll, probes, profile.Class)

	start := now
	m.StartJob(profile, alloc, profile.BaseTime(nodes, apps.ReferenceScale), func(rj *machine.RunningJob) {
		rt := rj.RunTime()
		_ = res.JobScope.Add(dataset.Sample{
			App: profile.Name, Class: profile.Class, Nodes: nodes,
			StartTime: start, RunTime: rt, Features: featJob,
		})
		_ = res.AllScope.Add(dataset.Sample{
			App: profile.Name, Class: profile.Class, Nodes: nodes,
			StartTime: start, RunTime: rt, Features: featAll,
		})
	})
	return nil
}

// ambient drives the background contention process (see ambientBase
// and the constants beside it).
type ambient struct {
	m        *machine.Machine
	cfg      CollectConfig
	bg       *machine.Background
	rng      *sim.Source
	burst    float64
	podDev   []float64
	fsDev    float64
	episode  float64 // current episode amplitude, 0 when calm
	stopped  bool
	incident [2]float64 // start, end time of the incident window
}

func newAmbient(m *machine.Machine, cfg CollectConfig) *ambient {
	a := &ambient{
		m:      m,
		cfg:    cfg,
		bg:     m.NewBackground(),
		rng:    m.Eng.Source().Derive("ambient"),
		podDev: make([]float64, cfg.Topo.Pods()),
	}
	if cfg.Incident {
		mid := float64(cfg.Days) / 2 * Day
		a.incident = [2]float64{mid, mid + 14*Day}
	}
	return a
}

func (a *ambient) start() { a.step() }

func (a *ambient) stop() { a.stopped = true }

// step updates the ambient load and reschedules itself.
func (a *ambient) step() {
	if a.stopped {
		return
	}
	t := a.m.Eng.Now()
	// Shared burst: an AR(1) walk that decays toward zero.
	a.burst = ambientPersistence*a.burst + a.rng.Normal(0, ambientBurstSigma)
	a.fsDev = ambientPersistence*a.fsDev + a.rng.Normal(0, ambientBurstSigma)
	// Episodic congestion: a two-state process. Episodes begin at rate
	// 1/episodeEvery, end at rate 1/episodeDuration, and carry a
	// uniformly drawn amplitude for their whole lifetime.
	if a.episode == 0 {
		if a.rng.Bool(ambientUpdateEvery / episodeEvery) {
			a.episode = a.rng.Uniform(episodeLoadMin, episodeLoadMax)
		}
	} else if a.rng.Bool(ambientUpdateEvery / episodeDuration) {
		a.episode = 0
	}
	diurnal := ambientDiurnalAmp * math.Sin(2*math.Pi*t/Day)
	boost := a.episode
	if a.cfg.Incident && t >= a.incident[0] && t < a.incident[1] {
		boost += incidentBoost
	}
	shared := ambientBase + diurnal + a.burst + boost

	podNet := map[int]float64{}
	for p := range a.podDev {
		a.podDev[p] = ambientPersistence*a.podDev[p] + a.rng.Normal(0, ambientPodSigma)
		podNet[p] = clamp(shared+a.podDev[p], 0, 1.45)
	}
	fs := clamp(ambientFSBase+0.7*(a.burst+boost)+a.fsDev, 0, 1.35)
	a.bg.Set(simnet.Contribution{PodNet: podNet, FS: fs})
	a.m.Eng.Schedule(ambientUpdateEvery, a.step)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
