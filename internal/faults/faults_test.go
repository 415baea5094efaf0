package faults

import (
	"math"
	"strings"
	"testing"

	"rush/internal/cluster"
	"rush/internal/machine"
	"rush/internal/obs"
	"rush/internal/sim"
)

func testMachine(t *testing.T, seed int64) *machine.Machine {
	t.Helper()
	eng := sim.New(seed)
	m, err := machine.New(eng, cluster.Topology{Nodes: 32, PodSize: 16, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	bad := []struct {
		c    Config
		want string // the field the error must name
	}{
		{Config{NodeMTBF: -1}, "node MTBF"},
		{Config{NodeMTTR: -1}, "node MTTR"},
		{Config{TelemetryLoss: -0.1}, "telemetry loss"},
		{Config{TelemetryLoss: 1.1}, "telemetry loss"},
		{Config{FreezeProb: 2}, "freeze probability"},
		{Config{ModelOutage: -0.5}, "model outage"},
		{Config{ModelOutage: 1.5}, "model outage"},
		{Config{NodeMTBF: 3600, NodeMTTR: math.NaN()}, "node MTTR NaN is not a finite number"},
		{Config{NodeMTBF: math.Inf(1)}, "node MTBF +Inf is not a finite number"},
		{Config{TelemetryLoss: math.NaN()}, "telemetry loss NaN is not a finite number"},
		{Config{FreezeProb: math.NaN()}, "freeze probability NaN is not a finite number"},
		{Config{ModelOutage: math.NaN()}, "model outage NaN is not a finite number"},
	}
	for _, b := range bad {
		if err := b.c.Validate(); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("config %+v: error %v, want one naming %q", b.c, err, b.want)
		}
	}
	ok := []Config{
		{},
		{NodeMTBF: 3600, NodeMTTR: 600},
		{TelemetryLoss: 1, FreezeProb: 1, ModelOutage: 1},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v should be valid: %v", c, err)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for _, c := range []Config{
		{NodeMTBF: 1}, {TelemetryLoss: 0.1}, {FreezeProb: 0.1}, {ModelOutage: 0.1},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v should be enabled", c)
		}
	}
}

// The zero config must wire nothing at all: no scheduled events, no
// sampler fault model, no ModelDown predicate. This is the contract
// that keeps clean runs bit-identical to a build without this package.
func TestAttachZeroConfigWiresNothing(t *testing.T) {
	m := testMachine(t, 1)
	scheduled := obs.NewRegistry().Counter("scheduled")
	m.Eng.Instrument(scheduled, nil)
	inj, err := Attach(m, Config{}, m.Eng.Source().Derive("faults"))
	if err != nil {
		t.Fatal(err)
	}
	if scheduled.Value() != 0 {
		t.Fatal("zero config must not schedule events")
	}
	if inj.ModelDown() != nil {
		t.Fatal("zero outage must yield a nil ModelDown predicate")
	}
	m.Eng.RunUntil(24 * 3600)
	if inj.NodeFailures != 0 || inj.JobKills != 0 {
		t.Fatal("zero config injected faults")
	}
}

func TestAttachRejectsInvalidConfig(t *testing.T) {
	m := testMachine(t, 1)
	if _, err := Attach(m, Config{NodeMTBF: -1}, m.Eng.Source().Derive("faults")); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestNodeChurnFailsAndRepairs(t *testing.T) {
	m := testMachine(t, 42)
	inj, err := Attach(m, Config{NodeMTBF: 4 * 3600, NodeMTTR: 600},
		m.Eng.Source().Derive("faults"))
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.RunUntil(7 * 24 * 3600)
	if inj.NodeFailures == 0 {
		t.Fatal("a week at 4h MTBF should produce failures")
	}
	// Repairs trail failures by at most the nodes currently down.
	down := inj.NodeFailures - inj.NodeRepairs
	if down < 0 || down > m.Topo.Nodes {
		t.Fatalf("failures=%d repairs=%d", inj.NodeFailures, inj.NodeRepairs)
	}
	seen := 0
	for n := 0; n < m.Topo.Nodes; n++ {
		if m.Alloc.Down(cluster.NodeID(n)) {
			seen++
		}
	}
	if seen != down {
		t.Fatalf("allocator sees %d down, injector accounts %d", seen, down)
	}
	// Average availability should be roughly MTBF/(MTBF+MTTR) ~ 0.96;
	// just sanity-check the machine is not permanently degraded.
	if seen > m.Topo.Nodes/2 {
		t.Fatalf("half the machine down: %d", seen)
	}
}

func TestNodeChurnDeterminism(t *testing.T) {
	run := func() (int, int, float64) {
		m := testMachine(t, 7)
		inj, err := Attach(m, Config{NodeMTBF: 2 * 3600, NodeMTTR: 300},
			m.Eng.Source().Derive("faults"))
		if err != nil {
			t.Fatal(err)
		}
		m.Eng.RunUntil(48 * 3600)
		return inj.NodeFailures, inj.NodeRepairs, m.Eng.Now()
	}
	f1, r1, t1 := run()
	f2, r2, t2 := run()
	if f1 != f2 || r1 != r2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", f1, r1, t1, f2, r2, t2)
	}
}

// Telemetry fault draws are pure: the same (table, node, tick) always
// gets the same verdict, and the empirical drop rate tracks the config.
func TestTelemetryDropPurityAndRate(t *testing.T) {
	m := testMachine(t, 3)
	const loss = 0.2
	f := &telemetryFaults{cfg: Config{TelemetryLoss: loss}, src: m.Eng.Source().Derive("faults")}
	dropped := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		node := cluster.NodeID(i % 32)
		tick := int64(i)
		first := f.Dropped("procstat", node, tick)
		if f.Dropped("procstat", node, tick) != first {
			t.Fatal("drop verdict must be pure")
		}
		if first {
			dropped++
		}
	}
	rate := float64(dropped) / trials
	if math.Abs(rate-loss) > 0.02 {
		t.Fatalf("empirical drop rate %v far from %v", rate, loss)
	}
	// Different tables draw independently.
	diverged := false
	for i := 0; i < 100; i++ {
		if f.Dropped("procstat", 0, int64(i)) != f.Dropped("meminfo", 0, int64(i)) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("per-table drop streams should be independent")
	}
}

func TestFreezeReflectsWindowStart(t *testing.T) {
	cfg := Config{FreezeProb: 0.3}
	cfg.fill()
	f := &telemetryFaults{cfg: cfg, src: sim.NewSource(9).Derive("faults")}
	frozenWindows := 0
	for w := int64(0); w < 200; w++ {
		start := w * freezeWindow
		got := f.SampleTick(5, start+3)
		if got != start+3 && got != start {
			t.Fatalf("tick %d reflected to %d: must be itself or the window start", start+3, got)
		}
		if got == start {
			frozenWindows++
			// Every tick in a frozen window reflects to the same start.
			for off := int64(0); off < freezeWindow; off++ {
				if f.SampleTick(5, start+off) != start {
					t.Fatal("frozen window must reflect all ticks to its start")
				}
			}
		}
	}
	if frozenWindows == 0 || frozenWindows == 200 {
		t.Fatalf("frozen %d/200 windows at p=0.3", frozenWindows)
	}
	// SampleTick never runs forward in time.
	for tick := int64(0); tick < 500; tick++ {
		if got := f.SampleTick(2, tick); got > tick {
			t.Fatalf("SampleTick(%d) = %d ran ahead of real time", tick, got)
		}
	}
}

func TestModelDownPredicate(t *testing.T) {
	m := testMachine(t, 11)
	inj, err := Attach(m, Config{ModelOutage: 1}, m.Eng.Source().Derive("faults"))
	if err != nil {
		t.Fatal(err)
	}
	down := inj.ModelDown()
	if down == nil {
		t.Fatal("outage 1 must yield a predicate")
	}
	if !down() || !down() {
		t.Fatal("outage 1 means always down, and probing must be repeatable")
	}

	m2 := testMachine(t, 11)
	inj2, err := Attach(m2, Config{ModelOutage: 0.4},
		m2.Eng.Source().Derive("faults"))
	if err != nil {
		t.Fatal(err)
	}
	partial := inj2.ModelDown()
	downPeriods := 0
	const periods = 2000
	for i := 0; i < periods; i++ {
		m2.Eng.RunUntil(float64(i)*modelOutagePeriod + modelOutagePeriod/2)
		if partial() {
			downPeriods++
		}
	}
	rate := float64(downPeriods) / periods
	if math.Abs(rate-0.4) > 0.05 {
		t.Fatalf("empirical outage rate %v far from 0.4", rate)
	}
}
