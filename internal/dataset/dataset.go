// Package dataset assembles the paper's Table I feature vectors and
// labels. Each sample corresponds to one proxy-application run: the
// min/mean/max aggregation of every system counter over the five minutes
// before the run (270 features), the nine aggregated MPI probe wait
// times, and the three-way one-hot application type — 282 features in
// total — labelled with the run time's per-application z-score.
package dataset

import (
	"fmt"
	"math"

	"rush/internal/apps"
	"rush/internal/simnet"
	"rush/internal/stats"
	"rush/internal/telemetry"
)

// NumFeatures is the Table I total: 3 aggregates x 90 counters + 9 probe
// features + 3 application-type features.
const NumFeatures = 3*telemetry.NumCounters + 9 + 3

// Sample is one proxy-application run.
type Sample struct {
	// App is the application name.
	App string
	// Class is the workload-type label.
	Class apps.Class
	// Nodes is the node count of the run.
	Nodes int
	// StartTime is when the run began (simulation seconds).
	StartTime float64
	// RunTime is the realized wall-clock run time in seconds.
	RunTime float64
	// Features is the NumFeatures-length input vector.
	Features []float64
}

// Dataset is an ordered collection of samples sharing the Table I layout.
type Dataset struct {
	Samples []Sample
}

// FeatureNames returns the 282 column names in vector order:
// min/mean/max of each counter (as in the paper, e.g. the xmit_rate
// counter becomes min_xmit_rate, mean_xmit_rate, max_xmit_rate), then the
// nine probe aggregates, then the type one-hot.
func FeatureNames() []string {
	names := make([]string, 0, NumFeatures)
	for _, c := range telemetry.Schema() {
		for _, agg := range []string{"min", "mean", "max"} {
			names = append(names, agg+"_"+c.Table+"_"+c.Name)
		}
	}
	for _, op := range []string{"send_wait", "recv_wait", "allreduce_wait"} {
		for _, agg := range []string{"min", "mean", "max"} {
			names = append(names, agg+"_mpibench_"+op)
		}
	}
	names = append(names, "type_compute", "type_network", "type_io")
	if len(names) != NumFeatures {
		panic("dataset: feature name count drifted from Table I")
	}
	return names
}

// BuildFeatures assembles one feature vector from counter aggregates,
// probe results, and the workload class, in FeatureNames order.
func BuildFeatures(agg telemetry.Aggregates, probes simnet.ProbeResult, class apps.Class) []float64 {
	return BuildFeaturesInto(agg, probes, class, make([]float64, 0, NumFeatures))
}

// CounterMask returns the counters a reader of the features marked in
// read needs: in BuildFeaturesInto's layout feature f < 3*NumCounters
// is an aggregate of counter f/3, and the features after those come from
// probes and the application type.
func CounterMask(read []bool) (mask [telemetry.NumCounters]bool) {
	for f, r := range read {
		if r && f < 3*telemetry.NumCounters {
			mask[f/3] = true
		}
	}
	return mask
}

// BuildFeaturesInto is BuildFeatures appending into out (pass a reused
// buffer sliced to [:0]); with capacity NumFeatures it allocates nothing.
func BuildFeaturesInto(agg telemetry.Aggregates, probes simnet.ProbeResult, class apps.Class, out []float64) []float64 {
	f := out
	for i := range agg.Min {
		f = append(f, agg.Min[i], agg.Mean[i], agg.Max[i])
	}
	f = append(f, stats.Min(probes.SendWait), stats.Mean(probes.SendWait), stats.Max(probes.SendWait))
	f = append(f, stats.Min(probes.RecvWait), stats.Mean(probes.RecvWait), stats.Max(probes.RecvWait))
	f = append(f, stats.Min(probes.AllReduceWait), stats.Mean(probes.AllReduceWait), stats.Max(probes.AllReduceWait))
	oh := class.OneHot()
	f = append(f, oh[0], oh[1], oh[2])
	if len(f)-len(out) != NumFeatures {
		panic(fmt.Sprintf("dataset: built %d features, want %d", len(f)-len(out), NumFeatures))
	}
	return f
}

// Add appends a sample, validating its feature width.
func (d *Dataset) Add(s Sample) error {
	if len(s.Features) != NumFeatures {
		return fmt.Errorf("dataset: sample has %d features, want %d", len(s.Features), NumFeatures)
	}
	if s.RunTime <= 0 || math.IsNaN(s.RunTime) {
		return fmt.Errorf("dataset: invalid run time %v", s.RunTime)
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// X returns the feature matrix (rows reference the samples' slices).
func (d *Dataset) X() [][]float64 {
	x := make([][]float64, len(d.Samples))
	for i := range d.Samples {
		x[i] = d.Samples[i].Features
	}
	return x
}

// AppNames returns each sample's application name, aligned with X.
func (d *Dataset) AppNames() []string {
	out := make([]string, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].App
	}
	return out
}

// AppStat summarizes one application's run-time distribution; the
// experiment harness uses these reference statistics to count runs that
// "experience variation".
type AppStat struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
}

// Stats computes per-application run-time statistics.
func (d *Dataset) Stats() map[string]AppStat {
	byApp := map[string][]float64{}
	for _, s := range d.Samples {
		byApp[s.App] = append(byApp[s.App], s.RunTime)
	}
	out := map[string]AppStat{}
	for app, ts := range byApp {
		out[app] = AppStat{N: len(ts), Mean: stats.Mean(ts), Std: stats.Std(ts), Min: stats.Min(ts)}
	}
	return out
}

// Label values. Binary labelling maps to {LabelNone, LabelVariation};
// three-class labelling uses all three.
const (
	// LabelNone marks a run within the no-variation band.
	LabelNone = 0
	// LabelLittle marks a run between the 1.2 and 1.5 sigma bands
	// (three-class labelling only).
	LabelLittle = 1
	// LabelVariation marks a run beyond the variation threshold.
	LabelVariation = 2
)

// Z-score thresholds from Section IV-A of the paper.
const (
	// LittleSigma is the three-class no/little boundary.
	LittleSigma = 1.2
	// VariationSigma is the variation boundary used by both labellings.
	VariationSigma = 1.5
)

// ZScores returns each sample's run-time z-score relative to its own
// application's mean and standard deviation within this dataset.
// Variation is one-sided: only slower-than-usual runs count, matching the
// paper's framing of variation as performance degradation.
func (d *Dataset) ZScores() []float64 {
	st := d.Stats()
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		a := st[s.App]
		out[i] = stats.ZScore(s.RunTime, a.Mean, a.Std)
	}
	return out
}

// BinaryLabels labels each sample 0 (no variation, z < 1.5) or 1
// (variation, z >= 1.5) — the paper's model-selection task.
func (d *Dataset) BinaryLabels() []int {
	zs := d.ZScores()
	out := make([]int, len(zs))
	for i, z := range zs {
		if z >= VariationSigma {
			out[i] = 1
		}
	}
	return out
}

// ThreeClassLabels labels samples no variation (z < 1.2), little
// variation (1.2 <= z < 1.5), or variation (z >= 1.5) — the labelling of
// the deployed scheduler model.
func (d *Dataset) ThreeClassLabels() []int {
	zs := d.ZScores()
	out := make([]int, len(zs))
	for i, z := range zs {
		switch {
		case z >= VariationSigma:
			out[i] = LabelVariation
		case z >= LittleSigma:
			out[i] = LabelLittle
		default:
			out[i] = LabelNone
		}
	}
	return out
}

// LabelWith labels each sample against externally supplied per-app
// statistics (e.g. training-set statistics applied to experiment runs).
// Unknown apps yield LabelNone.
func LabelWith(st map[string]AppStat, app string, runTime float64) int {
	a, ok := st[app]
	if !ok {
		return LabelNone
	}
	z := stats.ZScore(runTime, a.Mean, a.Std)
	switch {
	case z >= VariationSigma:
		return LabelVariation
	case z >= LittleSigma:
		return LabelLittle
	default:
		return LabelNone
	}
}

// Filter returns a new dataset containing only samples for which keep
// returns true.
func (d *Dataset) Filter(keep func(Sample) bool) *Dataset {
	out := &Dataset{}
	for _, s := range d.Samples {
		if keep(s) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// FilterApps returns the subset of samples whose app is in names.
func (d *Dataset) FilterApps(names ...string) *Dataset {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return d.Filter(func(s Sample) bool { return set[s.App] })
}
