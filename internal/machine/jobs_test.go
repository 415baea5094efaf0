package machine

import (
	"testing"

	"rush/internal/alloctest"
	"rush/internal/apps"
	"rush/internal/cluster"
	"rush/internal/sim"
	"rush/internal/telemetry"
)

// warmQuartz returns a pooled Quartz machine that prunes its load
// history and has run width jobs of nodes nodes at once, started and
// finished a simulated second apart, one cycle a second until a cycle
// past the history's first prune of its retention window: its history
// ring, lanes and event heap have stopped growing, and its pool holds
// width objects that each ran such a job. grant allocates the next job's
// nodes; the allocator carves node lists from chunks of its own, so
// callers grant outside what they count.
func warmQuartz(t *testing.T, width, nodes int) (m *Machine, grant func() cluster.Allocation) {
	const interval, keep = telemetry.WindowSeconds, 3 * telemetry.WindowSeconds
	m = machineOverTopo(sim.New(3), cluster.Quartz())
	m.PoolJobs = true
	m.StartPruning(interval, keep)
	grant = func() cluster.Allocation {
		a, err := m.Alloc.Alloc(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for i := 0; i < interval+keep+64; i++ {
		for k := 0; k < width; k++ {
			m.StartJob(lifeProfile, grant(), 0.5, nil)
		}
		m.Eng.RunUntil(m.Eng.Now() + 1)
	}
	return m, grant
}

var lifeProfile = apps.Defaults()[2]

// TestJobLifeZeroAllocs pins a job's start and finish on a warm, pooled
// Quartz: once a pooled object has run a job as wide, StartJob and the
// job's completion allocate nothing, whether the allocation sits in one
// pod, spans three or spans eight (the inline arrays' width).
func TestJobLifeZeroAllocs(t *testing.T) {
	podSize := cluster.Quartz().PodSize
	for _, pods := range []int{1, 3, inlinePods} {
		var (
			m     *Machine
			alloc cluster.Allocation
		)
		nodes := (pods-1)*podSize + 1 // fills pods-1 pods and one node of the next
		build := func() {
			var grant func() cluster.Allocation
			m, grant = warmQuartz(t, 1, nodes)
			alloc = grant()
		}
		objects, _ := alloctest.Count(3, build, func() {
			m.StartJob(lifeProfile, alloc, 0.5, nil)
			m.Eng.RunUntil(m.Eng.Now() + 1)
		})
		if m.nJobs != 0 || len(m.freeJobs) != 1 || len(m.freeJobs[0].pods) != pods {
			t.Fatalf("%d pods: %d jobs running, %d pooled", pods, m.nJobs, len(m.freeJobs))
		}
		if objects != 0 {
			t.Fatalf("a job on %d pods allocated %d times from start to finish on a warm pooled machine; want 0", pods, objects)
		}
	}
}

// TestFreshJobCost pins what a job costs when no pooled object is free:
// its share of a slab of jobSlab objects and nothing else. Every other
// structure a start touches is warm: the machine has run 2*jobSlab jobs
// at once before, its pool is then emptied, and its slab is used up. So
// the first job costs the slab, the second nothing, and a slab's worth of
// jobs the one slab.
func TestFreshJobCost(t *testing.T) {
	for _, c := range []struct {
		before, start int
		want          uint64
	}{
		{0, 1, 1},
		{1, 1, 0},
		{0, jobSlab, 1},
	} {
		var (
			m      *Machine
			allocs []cluster.Allocation
		)
		build := func() {
			var grant func() cluster.Allocation
			m, grant = warmQuartz(t, 2*jobSlab, 1)
			if len(m.slab) != 0 || len(m.freeJobs) != 2*jobSlab {
				t.Fatalf("warm-up left %d slab objects and %d pooled", len(m.slab), len(m.freeJobs))
			}
			clear(m.freeJobs)
			m.freeJobs = m.freeJobs[:0]
			for range c.before {
				m.StartJob(lifeProfile, grant(), 1e6, nil)
			}
			allocs = allocs[:0]
			for range c.start {
				allocs = append(allocs, grant())
			}
		}
		objects, _ := alloctest.Count(3, build, func() {
			for _, a := range allocs {
				m.StartJob(lifeProfile, a, 1e6, nil)
			}
		})
		if objects != c.want {
			t.Fatalf("starting %d fresh jobs after %d allocated %d objects; want %d", c.start, c.before, objects, c.want)
		}
	}
}
