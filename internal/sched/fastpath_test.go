package sched

import (
	"math"
	"testing"

	"rush/internal/alloctest"
	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/dataset"
	"rush/internal/machine"
	"rush/internal/mlkit"
	"rush/internal/sim"
	"rush/internal/simnet"
	"rush/internal/telemetry"
)

// twinGates builds two machines from the same seed with identical trained
// models, one gate on each, so that the production decision of one and
// the oracle decision of the other (refAllow) can be compared step for
// step.
func twinGates(t *testing.T, seed int64) (fast, ref *RUSH, bgF, bgR *machine.Background) {
	t.Helper()
	build := func() (*machine.Machine, *machine.Background) {
		eng := sim.New(seed)
		// Single pod, like the training machine, so the job's nodes see
		// the same congestion the model learned from.
		m, err := machine.New(eng, cluster.Topology{Nodes: 64, PodSize: 64, CoresPerNode: 4})
		if err != nil {
			t.Fatal(err)
		}
		return m, m.NewBackground()
	}
	mF, bgF := build()
	mR, bgR := build()
	// One model, trained once, shared by both gates — exactly the shape
	// of parallel experiment trials sharing a trained predictor.
	model := trainedToyModel(t, gateMachine())
	fast = NewRUSH(mF, model)
	ref = NewRUSH(mR, model)
	return fast, ref, bgF, bgR
}

// refFeatures is the oracle of Features.LiveFeatures: the feature vector
// built from scratch by the functions core.Collect builds training rows
// with, aggregated by a sampler that stores no row. Its topology has the
// machine's pod size and no nodes, so every node of a scope is one it
// has no ring for and each row is computed afresh, from the machine's
// history and with its sampler's noise stream. (Flushing the machine's
// own store would leave the oracle reading the row store it checks.)
// The oracle's sampler computes every counter; the machine's computes
// only those g's model reads (no fault model is installed here), so the
// oracle zeroes the aggregates of the others, which is what the
// production vector holds for them.
func refFeatures(g *RUSH, alloc cluster.Allocation, class apps.Class) []float64 {
	m := g.m
	s := telemetry.NewSampler(cluster.Topology{PodSize: m.Topo.PodSize}, m.Eng.Source().Derive("telemetry"))
	agg := s.AggregateWindow(m.Net.History(), alloc.Nodes, m.Eng.Now())
	feats := dataset.BuildFeatures(agg, m.RunProbes(alloc), class)
	read := make([]bool, dataset.NumFeatures)
	mlkit.MarkRead(g.model, read)
	mask := dataset.CounterMask(read)
	for f := 0; f < 3*telemetry.NumCounters; f++ {
		if !mask[f/3] {
			feats[f] = 0
		}
	}
	return feats
}

// refAllow is RUSH.Allow with the feature oracle, refFeatures, in place
// of the production vector, and Algorithm 2's rule spelled out for the
// verdict. The pipeline layers and the ledger are g's own, so the
// counters can be compared too.
func refAllow(t *testing.T, g *RUSH, j *Job, alloc cluster.Allocation) bool {
	t.Helper()
	now := g.m.Eng.Now()
	v := g.Admit(now, j.Skips, j.SkipThreshold, false)
	if !v.Final() && g.MaxStaleness > 0 {
		v = g.Fresh(now, g.FreshnessAge(alloc))
	}
	var feats []float64
	if !v.Final() {
		feats = refFeatures(g, alloc, j.App.Class)
		var err error
		if v, err = g.Eval(now, v.Age, feats, len(feats)); err != nil {
			t.Fatal(err)
		}
		if !v.Final() {
			class := g.model.Predict(feats)
			v = v.Decided(class == dataset.LabelVariation, class)
		}
	}
	return g.Record(now, j, v)
}

// TestGateFastPathMatchesReference drives twin gates through identical
// load histories and checks every decision, feature vector, and counter
// agrees bit for bit between the production path and the oracle.
func TestGateFastPathMatchesReference(t *testing.T) {
	// The gate applies its label rule on the job's own node scope.
	t.Run("job-scope-label", func(t *testing.T) {
		fast, ref, bgF, bgR := twinGates(t, 99)
		alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
		rng := sim.NewSource(7).Derive("drive")
		for step := 0; step < 25; step++ {
			load := rng.Uniform(0, 1.2)
			c := simnet.Contribution{PodNet: map[int]float64{0: load}, FS: rng.Uniform(0, 0.4)}
			bgF.Set(c)
			bgR.Set(c)
			dt := rng.Uniform(20, 300)
			fast.m.Eng.RunUntil(fast.m.Eng.Now() + dt)
			ref.m.Eng.RunUntil(ref.m.Eng.Now() + dt)

			ff := fast.LiveFeatures(alloc, apps.NetworkIntensive)
			rf := refFeatures(ref, alloc, apps.NetworkIntensive)
			if len(ff) != len(rf) {
				t.Fatalf("step %d: feature lengths %d vs %d", step, len(ff), len(rf))
			}
			for i := range ff {
				if math.Float64bits(ff[i]) != math.Float64bits(rf[i]) {
					t.Fatalf("step %d: feature %d = %v vs %v", step, i, ff[i], rf[i])
				}
			}
			j := &Job{ID: step, App: apps.Defaults()[1]}
			// The feature builds above consumed probe draws on both
			// sides equally; a decision consumes another identical set.
			fd := fast.Allow(j, alloc)
			j2 := &Job{ID: step, App: apps.Defaults()[1]}
			rd := refAllow(t, ref, j2, alloc)
			if fd != rd {
				t.Fatalf("step %d: fast decision %v, reference %v", step, fd, rd)
			}
		}
		maskInForce(t, fast)
		if fast.Evaluations != ref.Evaluations || fast.Vetoes != ref.Vetoes {
			t.Fatalf("counter drift: fast eval/veto %d/%d, ref %d/%d",
				fast.Evaluations, fast.Vetoes, ref.Evaluations, ref.Vetoes)
		}
		if fast.Vetoes == 0 || fast.Vetoes == fast.Evaluations {
			t.Fatalf("degenerate drive: %d vetoes of %d evaluations", fast.Vetoes, fast.Evaluations)
		}
	})
}

// TestGateDecisionZeroAllocs pins the gate's allocation contract: a
// decision — freshness check, window aggregation over the job's nodes,
// probes, feature assembly, the model's Predict — allocates nothing in
// steady state. The shapes are the two decisions a RUSH trial is made
// of, on a 16-node scope of a 512-node machine under ambient
// load, with history and sampler pruned as a trial prunes them.
// first-ask rotates through 28 disjoint scopes one sample period apart,
// so each returns after 420 s and every row of its window is computed;
// re-ask stays on one scope and asks two ticks later, the scheduler's
// 30 s veto cooldown, when 32 rows are new. same-pass is first-ask with a
// second queued job asking for the same nodes at the same instant, as
// Algorithm 2's pass does, which the sampler answers from its window
// memo. One lap over the scopes warms the row store, as a trial's first
// minutes do; after that none may allocate an object or a byte over two
// laps. The counts are runtime.MemStats deltas, so a fraction of an
// allocation per decision, which testing.AllocsPerRun rounds to zero,
// fails too. Each is the fewest of three, each on a machine built and
// warmed afresh, so an allocation made once in the two laps is in every
// count (see alloctest.Count).
func TestGateDecisionZeroAllocs(t *testing.T) {
	model := trainedToyModel(t, gateMachine())
	j, j2 := &Job{ID: 1, App: apps.Defaults()[1]}, &Job{ID: 2, App: apps.Defaults()[1]}
	// measure counts what 56 asks, two laps of the 28 job scopes,
	// allocate after build has made the gate and set ask.
	var ask func(i int)
	measure := func(build func()) (objects, bytes uint64) {
		return alloctest.Count(3, build, func() {
			for i := 0; i < 2*28; i++ {
				ask(i)
			}
		})
	}

	for _, shape := range []struct {
		name   string
		ticks  int
		rotate bool
		pair   bool
	}{{"job/first-ask", 1, true, false}, {"job/re-ask", 2, false, false}, {"job/same-pass", 1, true, true}} {
		t.Run(shape.name, func(t *testing.T) {
			var (
				gate   *RUSH
				m      *machine.Machine
				reuses uint64
			)
			build := func() {
				eng := sim.New(4242)
				var err error
				m, err = machine.New(eng, cluster.Topology{Nodes: 512, PodSize: 64, CoresPerNode: 36})
				if err != nil {
					t.Fatal(err)
				}
				gate = NewRUSH(m, model)
				m.NewBackground().Set(simnet.Contribution{
					PodNet: map[int]float64{0: 0.8, 1: 0.6, 2: 0.9, 3: 0.4, 4: 0.7, 5: 0.5, 6: 0.3, 7: 0.6},
					FS:     0.3,
				})
				eng.RunUntil(900)
				m.StartPruning(telemetry.WindowSeconds, 3*telemetry.WindowSeconds)
				var scopes []cluster.Allocation
				for lo := 64; lo+16 <= 512; lo += 16 {
					nodes := make([]cluster.NodeID, 16)
					for i := range nodes {
						nodes[i] = cluster.NodeID(lo + i)
					}
					scopes = append(scopes, cluster.Allocation{Nodes: nodes})
				}
				ask = func(i int) {
					eng.RunUntil(eng.Now() + float64(shape.ticks)*telemetry.SamplePeriod)
					scope := scopes[0]
					if shape.rotate {
						scope = scopes[i%len(scopes)]
					}
					j.Skips = 0
					gate.Allow(j, scope)
					if shape.pair {
						j2.Skips = 0
						gate.Allow(j2, scope)
					}
				}
				for i := range scopes {
					ask(i)
				}
				reuses = m.Sampler.Stats().Reuses
			}
			if objects, bytes := measure(build); objects != 0 || bytes != 0 {
				t.Fatalf("two laps of %s gate decisions allocated %d objects, %d bytes; want 0", shape.name, objects, bytes)
			}
			maskInForce(t, gate)
			if got := m.Sampler.Stats().Reuses - reuses; (got > 0) != shape.pair {
				t.Fatalf("%s: %d windows answered from the memo", shape.name, got)
			}
		})
	}
}

// maskInForce checks that g's sampler computes only the counters g's
// model reads: the last vector g built holds 0 in every aggregate of the
// others, and there are some.
func maskInForce(t *testing.T, g *RUSH) {
	t.Helper()
	unread := 0
	for ci, read := range dataset.CounterMask(g.reads[:]) {
		if read {
			continue
		}
		unread++
		for f := 3 * ci; f < 3*ci+3; f++ {
			if g.featsBuf[f] != 0 {
				t.Fatalf("feature %d of unread counter %d = %v; the mask is not in force", f, ci, g.featsBuf[f])
			}
		}
	}
	if unread == 0 {
		t.Fatal("the model reads every counter; the mask is not exercised")
	}
}

// TestNewRUSHAllocatesConstant checks that installing the counter mask
// costs NewRUSH the same number of allocations whatever the model: few
// or many rounds, stumps or trees, a forest, a model that does not say
// what it reads, and on a machine whose sampler has already served
// decisions. The first model's gate goes on a fresh machine; every later
// one on a machine whose sampler serves the previous gate, whose mask
// (the models alternate between reading some counters and all 90) has
// another row width. Each count is the fewest of five, and before each
// the machine is brought back to that state (see alloctest.Count): a
// fresh machine, or the previous gate reinstalled and one decision
// served, so that every counted call changes the row width of a sampler
// that has served decisions.
func TestNewRUSHAllocatesConstant(t *testing.T) {
	rng := sim.NewSource(5).Derive("rows")
	x := make([][]float64, 120)
	y := make([]int, len(x))
	for i := range x {
		x[i] = make([]float64, dataset.NumFeatures)
		for f := range x[i] {
			x[i][f] = rng.Uniform(0, 1)
		}
		y[i] = i % 3
		x[i][7*i%dataset.NumFeatures] += float64(y[i])
	}
	models := []mlkit.FastProbaPredictor{
		mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 5, Seed: 1, Workers: 1}),
		mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 150, Seed: 1, Workers: 1}),
		mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 30, Depth: 2, Seed: 1, Workers: 1}),
		mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 20, MaxDepth: 6, Seed: 1, Workers: 1}),
	}
	var cs []mlkit.Classifier
	for _, model := range models {
		if err := model.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		// The anonymous struct hides MarkRead: a model that does not say.
		cs = append(cs, model, struct{ mlkit.FastProbaPredictor }{model})
	}
	alloc := cluster.Allocation{Nodes: []cluster.NodeID{0, 1, 2, 3}}
	var (
		m     *machine.Machine
		first uint64
	)
	for k, c := range cs {
		setup := func() {
			m = gateMachine()
			m.Eng.RunUntil(900)
		}
		if k > 0 {
			setup = func() { NewRUSH(m, cs[k-1]).Allow(&Job{ID: k - 1, App: apps.Defaults()[1]}, alloc) }
		}
		var g *RUSH
		objects, _ := alloctest.Count(5, setup, func() { g = NewRUSH(m, c) })
		if k == 0 {
			first = objects
		} else if objects != first {
			t.Fatalf("NewRUSH over %s (%T) allocated %d objects, over the first model %d", c.Name(), c, objects, first)
		}
		g.Allow(&Job{ID: k, App: apps.Defaults()[1]}, alloc)
	}
}
