// Package workload generates the job streams of the paper's five
// scheduling experiments (Table II): ADAA, ADPA, PDPA run 16-node jobs of
// seven or three proxy applications; WS and SS run every app at 8, 16,
// and 32 nodes under weak and strong scaling. In every experiment 20% of
// the jobs are submitted immediately and the rest uniformly over twenty
// minutes, mimicking a scheduler that does not know the full queue a
// priori.
package workload

import (
	"fmt"

	"rush/internal/apps"
	"rush/internal/sched"
	"rush/internal/sim"
)

// Spec describes one of the paper's experiments.
type Spec struct {
	// Name is the experiment identifier (ADAA, ADPA, PDPA, WS, SS).
	Name string
	// Description mirrors the Table II description column.
	Description string
	// RunApps are the applications submitted during the experiment.
	RunApps []string
	// TrainApps are the applications whose collected data trains the ML
	// model (empty means all).
	TrainApps []string
	// NumJobs is the queue length.
	NumJobs int
	// NodeCounts are the per-job node counts cycled through (the paper
	// uses {16} or {8, 16, 32}).
	NodeCounts []int
	// Scaling selects how the problem size tracks node count.
	Scaling apps.ScalingMode
}

// SubmitWindow is the paper's twenty-minute staggered submission window.
const SubmitWindow = 20 * 60.0

// ImmediateFraction is the share of jobs queued at t=0.
const ImmediateFraction = 0.20

// TableII returns the five experiment specifications.
func TableII() []Spec {
	all := apps.Names()
	three := []string{"Laghos", "LBANN", "PENNANT"}
	four := []string{"AMG", "Kripke", "sw4lite", "SWFFT"}
	return []Spec{
		{
			Name:        "ADAA",
			Description: "All Data All Apps: ML model trained on data from all running applications",
			RunApps:     all, NumJobs: 190, NodeCounts: []int{16}, Scaling: apps.ReferenceScale,
		},
		{
			Name:        "ADPA",
			Description: "All Data Partial Apps: subset of 3 applications running",
			RunApps:     three, NumJobs: 150, NodeCounts: []int{16}, Scaling: apps.ReferenceScale,
		},
		{
			Name:        "PDPA",
			Description: "Partial Data Partial Apps: ML model trained on AMG, Kripke, sw4lite, SWFFT",
			RunApps:     three, TrainApps: four, NumJobs: 150, NodeCounts: []int{16}, Scaling: apps.ReferenceScale,
		},
		{
			Name:        "WS",
			Description: "Weak Scaling: jobs run on 8, 16, and 32 nodes",
			RunApps:     all, NumJobs: 190, NodeCounts: []int{8, 16, 32}, Scaling: apps.WeakScaling,
		},
		{
			Name:        "SS",
			Description: "Strong Scaling: jobs run on 8, 16, and 32 nodes",
			RunApps:     all, NumJobs: 190, NodeCounts: []int{8, 16, 32}, Scaling: apps.StrongScaling,
		},
	}
}

// SpecByName returns the Table II spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range TableII() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown experiment %q", name)
}

// SubmittedJob pairs a job with its submission time.
type SubmittedJob struct {
	Job      *sched.Job
	SubmitAt float64
}

// EstimateFactorRange bounds the user's walltime over-estimation: users
// facing variability pad their requests (Section I of the paper).
var EstimateFactorRange = [2]float64{1.3, 1.8}

// Generate builds the experiment's job stream. Jobs cycle through the
// spec's applications and node counts so every (app, size) pair receives
// an equal share; submission times follow the 20%-immediate,
// rest-uniform-over-20-minutes pattern. The slice is in job-ID order, not
// submit order. The same seed always produces the same stream.
func Generate(spec Spec, seed int64) ([]SubmittedJob, error) {
	if spec.NumJobs <= 0 {
		return nil, fmt.Errorf("workload: experiment %q has no jobs", spec.Name)
	}
	if len(spec.RunApps) == 0 || len(spec.NodeCounts) == 0 {
		return nil, fmt.Errorf("workload: experiment %q missing apps or node counts", spec.Name)
	}
	rng := sim.NewSource(seed).Derive("workload-" + spec.Name)

	jobs := make([]SubmittedJob, 0, spec.NumJobs)
	slab := make([]sched.Job, spec.NumJobs)
	for i := 0; i < spec.NumJobs; i++ {
		appName := spec.RunApps[i%len(spec.RunApps)]
		profile, err := apps.ByName(appName)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		nodes := spec.NodeCounts[(i/len(spec.RunApps))%len(spec.NodeCounts)]
		base := profile.BaseTime(nodes, spec.Scaling)
		j := &slab[i]
		*j = sched.Job{
			ID:       i,
			App:      profile,
			Nodes:    nodes,
			BaseWork: base,
			Estimate: base * rng.Uniform(EstimateFactorRange[0], EstimateFactorRange[1]),
		}
		at := 0.0
		if float64(i) >= ImmediateFraction*float64(spec.NumJobs) {
			at = rng.Uniform(0, SubmitWindow)
		}
		jobs = append(jobs, SubmittedJob{Job: j, SubmitAt: at})
	}
	// Shuffle the app assignment order (but keep IDs and submit times) so
	// applications are interleaved rather than batched.
	rng.Shuffle(len(jobs), func(a, b int) {
		jobs[a].Job, jobs[b].Job = jobs[b].Job, jobs[a].Job
	})
	for i := range jobs {
		jobs[i].Job.ID = i
	}
	return jobs, nil
}
