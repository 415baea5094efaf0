package machine

import (
	"math"
	"testing"

	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/simnet"
)

func newMachine(seed int64) *Machine {
	eng := sim.New(seed)
	m, err := New(eng, cluster.Topology{Nodes: 64, PodSize: 64, CoresPerNode: 4})
	if err != nil {
		panic(err)
	}
	return m
}

func calmProfile() apps.Profile {
	return apps.Profile{
		Name: "calm", Class: apps.ComputeIntensive,
		Base16: 100, StrongExp: 1, WeakExp: 0,
		NetPerNode: 0.01, FSPerNode: 0.0001,
		NetSens: 0, FSSens: 0, Jitter: 1e-9,
	}
}

func sensitiveProfile() apps.Profile {
	p := calmProfile()
	p.Name = "sensitive"
	p.NetSens = 1.0
	return p
}

func TestJobRunsForBaseTimeWhenIdle(t *testing.T) {
	m := newMachine(1)
	alloc, _ := m.Alloc.Alloc(16)
	var done *RunningJob
	m.StartJob(calmProfile(), alloc, 100, func(rj *RunningJob) { done = rj })
	m.Eng.Run()
	if done == nil {
		t.Fatal("job never completed")
	}
	if math.Abs(done.RunTime()-100) > 0.5 {
		t.Fatalf("idle run time = %v, want ~100", done.RunTime())
	}
	if m.Alloc.UsedCount() != 0 {
		t.Fatal("allocation not freed on completion")
	}
	if m.Net.NetLoad(0) != 0 {
		t.Fatal("load not withdrawn on completion")
	}
}

func TestCongestionStretchesRunTime(t *testing.T) {
	m := newMachine(2)
	alloc, _ := m.Alloc.Alloc(16)
	// Saturate the pod for the whole run: overload = 1 at load 1.65+...
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.0}})
	var done *RunningJob
	m.StartJob(sensitiveProfile(), alloc, 100, func(rj *RunningJob) { done = rj })
	m.Eng.Run()
	// Overload at load ~1.0 is ~1.0, NetSens 1 -> slowdown ~2.
	if done.RunTime() < 150 {
		t.Fatalf("congested run time = %v, want ~200", done.RunTime())
	}
}

func TestMidRunLoadChangeIntegrates(t *testing.T) {
	// Job runs 50s congested (slowdown ~2) then calm: total ~ 100+50.
	m := newMachine(3)
	alloc, _ := m.Alloc.Alloc(16)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.0}})
	var done *RunningJob
	m.StartJob(sensitiveProfile(), alloc, 100, func(rj *RunningJob) { done = rj })
	m.Eng.Schedule(50, func() { bg.Set(simnet.Contribution{}) })
	m.Eng.Run()
	if done == nil {
		t.Fatal("job never completed")
	}
	slowdown := sensitiveProfile().Slowdown(simnet.Overload(1.0+16*0.01/64), 0)
	want := 50 + (100-50/slowdown)*1.0
	if math.Abs(done.RunTime()-want) > 2 {
		t.Fatalf("integrated run time = %v, want ~%v", done.RunTime(), want)
	}
	// Sanity: strictly between always-calm and always-congested.
	if done.RunTime() <= 100 || done.RunTime() >= 100*slowdown {
		t.Fatalf("run time %v outside (100, %v)", done.RunTime(), 100*slowdown)
	}
}

func TestJitterIsPerRunDeterministic(t *testing.T) {
	run := func() []float64 {
		m := newMachine(7)
		p := calmProfile()
		p.Jitter = 0.05
		var times []float64
		var launch func()
		n := 0
		launch = func() {
			if n >= 5 {
				return
			}
			n++
			alloc, err := m.Alloc.Alloc(16)
			if err != nil {
				t.Fatal(err)
			}
			m.StartJob(p, alloc, 100, func(rj *RunningJob) {
				times = append(times, rj.RunTime())
				launch()
			})
		}
		launch()
		m.Eng.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("expected 5 runs, got %d", len(a))
	}
	distinct := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jitter not deterministic across identical simulations")
		}
		if i > 0 && a[i] != a[i-1] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("jitter should vary between runs")
	}
}

func TestConcurrentJobsContendWithEachOther(t *testing.T) {
	// Many network-heavy jobs at once should slow each other down.
	heavy := apps.Profile{
		Name: "heavy", Class: apps.NetworkIntensive,
		Base16: 100, NetPerNode: 2.0, FSPerNode: 0,
		NetSens: 0.8, FSSens: 0, Jitter: 1e-9,
	}
	soloTime := func(jobs int) float64 {
		m := newMachine(4)
		var last float64
		for i := 0; i < jobs; i++ {
			alloc, err := m.Alloc.Alloc(16)
			if err != nil {
				t.Fatal(err)
			}
			m.StartJob(heavy, alloc, 100, func(rj *RunningJob) { last = rj.RunTime() })
		}
		m.Eng.Run()
		return last
	}
	if s, c := soloTime(1), soloTime(4); c <= s {
		t.Fatalf("4 co-running heavy jobs (t=%v) should be slower than solo (t=%v)", c, s)
	}
}

func TestNoiseCyclesAndStops(t *testing.T) {
	m := newMachine(5)
	cfg := apps.DefaultNoise()
	nz, err := m.StartNoise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nz.Nodes() != 4 { // 64/16
		t.Fatalf("noise nodes = %d, want 4", nz.Nodes())
	}
	if m.Alloc.UsedCount() != 4 {
		t.Fatal("noise should hold its allocation")
	}
	// Observe several phases; load should change over time.
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		m.Eng.RunUntil(float64(i+1) * 100)
		seen[m.Net.NetLoad(0)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("noise load barely changes: %d distinct levels", len(seen))
	}
	nz.Stop()
	if m.Net.NetLoad(0) != 0 || m.Net.FSLoad() != 0 {
		t.Fatal("noise load not withdrawn after Stop")
	}
	if m.Alloc.UsedCount() != 0 {
		t.Fatal("noise allocation not freed after Stop")
	}
	nz.Stop() // double stop is a no-op
}

func TestBackgroundSetReplaces(t *testing.T) {
	m := newMachine(6)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{FS: 0.5})
	if m.Net.FSLoad() != 0.5 {
		t.Fatal("background not applied")
	}
	bg.Set(simnet.Contribution{FS: 0.2})
	if math.Abs(m.Net.FSLoad()-0.2) > 1e-12 {
		t.Fatalf("background should replace, not add: %v", m.Net.FSLoad())
	}
	bg.Set(simnet.Contribution{})
	if m.Net.FSLoad() != 0 {
		t.Fatal("background not cleared")
	}
}

func TestStartJobValidation(t *testing.T) {
	m := newMachine(8)
	alloc, _ := m.Alloc.Alloc(4)
	for _, f := range []func(){
		func() { m.StartJob(calmProfile(), alloc, 0, nil) },
		func() { m.StartJob(calmProfile(), cluster.Allocation{}, 10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid StartJob should panic")
				}
			}()
			f()
		}()
	}
}

func TestProbesRespondToNoise(t *testing.T) {
	m := newMachine(9)
	alloc, _ := m.Alloc.Alloc(8)
	calm := m.RunProbes(alloc).Duration()
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{PodNet: map[int]float64{0: 1.2}})
	hot := m.RunProbes(alloc).Duration()
	if hot <= calm {
		t.Fatalf("probe duration should rise under congestion: %v vs %v", calm, hot)
	}
}

func TestMultiPodJobFeelsCoreContention(t *testing.T) {
	eng := sim.New(11)
	topo := cluster.Topology{Nodes: 64, PodSize: 16, CoresPerNode: 4}
	m := machineOverTopo(eng, topo)
	bg := m.NewBackground()
	bg.Set(simnet.Contribution{Core: 1.1}) // saturate the core links

	p := sensitiveProfile()
	// Single-pod job: immune to core contention.
	a1, _ := m.Alloc.Alloc(16) // packs into one pod
	var single, multi *RunningJob
	m.StartJob(p, a1, 100, func(rj *RunningJob) { single = rj })
	// Multi-pod job: 32 nodes must span two pods.
	a2, _ := m.Alloc.Alloc(32)
	m.StartJob(p, a2, 100, func(rj *RunningJob) { multi = rj })
	m.Eng.Run()
	if single == nil || multi == nil {
		t.Fatal("jobs did not complete")
	}
	if single.RunTime() > 105 {
		t.Fatalf("single-pod job should ignore core load: %v", single.RunTime())
	}
	if multi.RunTime() < 150 {
		t.Fatalf("multi-pod job should feel core load: %v", multi.RunTime())
	}
}

func machineOverTopo(eng *sim.Engine, topo cluster.Topology) *Machine {
	m, err := New(eng, topo)
	if err != nil {
		panic(err)
	}
	return m
}

func TestFailNodeKillsVictimAndRestores(t *testing.T) {
	m := newMachine(9)
	alloc, _ := m.Alloc.Alloc(8)
	var done *RunningJob
	m.StartJob(calmProfile(), alloc, 100, func(rj *RunningJob) { done = rj })
	m.Eng.Schedule(40, func() {
		kills, err := m.FailNode(alloc.Nodes[0])
		if err != nil {
			t.Errorf("FailNode: %v", err)
		}
		if kills != 1 {
			t.Errorf("kills = %d, want 1", kills)
		}
	})
	m.Eng.RunUntil(50)
	if done == nil {
		t.Fatal("kill must invoke onDone")
	}
	if !done.Killed {
		t.Fatal("killed job must carry Killed flag")
	}
	if math.Abs(done.EndTime-40) > 1e-9 {
		t.Fatalf("kill time = %v, want 40", done.EndTime)
	}
	if m.nJobs != 0 || m.Alloc.UsedCount() != 0 {
		t.Fatal("killed job must release its allocation")
	}
	// The failed node stays out of the pool until restored.
	if m.Alloc.FreeCount() != 63 || !m.Alloc.Down(alloc.Nodes[0]) {
		t.Fatalf("free=%d, failed node down: %v", m.Alloc.FreeCount(), m.Alloc.Down(alloc.Nodes[0]))
	}
	if m.Net.NetLoad(0) != 0 {
		t.Fatal("killed job's load must be withdrawn")
	}
	if err := m.RestoreNode(alloc.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	if m.Alloc.FreeCount() != 64 {
		t.Fatalf("free=%d after restore", m.Alloc.FreeCount())
	}
}

func TestFailIdleNodeKillsNothing(t *testing.T) {
	m := newMachine(10)
	kills, err := m.FailNode(5)
	if err != nil {
		t.Fatal(err)
	}
	if kills != 0 {
		t.Fatalf("kills = %d on an idle machine", kills)
	}
	if m.Alloc.FreeCount() != 63 {
		t.Fatalf("free=%d", m.Alloc.FreeCount())
	}
}

// TestPooledJobComesBackWithoutOwner pins who clears Owner: the machine,
// when it returns the object to the pool, after onDone has read it.
func TestPooledJobComesBackWithoutOwner(t *testing.T) {
	m := newMachine(3)
	m.PoolJobs = true
	type tag struct{ name string }
	var seen []any
	onDone := func(rj *RunningJob) { seen = append(seen, rj.Owner) }
	start := func() *RunningJob {
		alloc, err := m.Alloc.Alloc(4)
		if err != nil {
			t.Fatal(err)
		}
		return m.StartJob(calmProfile(), alloc, 10, onDone)
	}
	first := start()
	if first.Owner != nil {
		t.Fatal("StartJob must return with Owner unset")
	}
	owner := &tag{"first"}
	first.Owner = owner
	m.Eng.Run()
	second := start()
	if second != first {
		t.Fatal("the pool did not hand the finished job's object back")
	}
	if second.Owner != nil {
		t.Fatalf("pooled job came back owned by %v", second.Owner)
	}
	m.Eng.Run()
	if len(seen) != 2 || seen[0] != any(owner) || seen[1] != nil {
		t.Fatalf("onDone saw owners %v, want [%p <nil>]", seen, owner)
	}
}
