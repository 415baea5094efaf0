package experiments

import (
	"sort"

	"rush/internal/dataset"
	"rush/internal/stats"
)

// BaselineStats computes per-application run-time statistics from the
// pooled baseline (FCFS+EASY) trials of an experiment. These are the
// reference distributions against which both policies' variation counts
// are judged: the baseline is the control, so "a run experiencing
// variation" means a run more than 1.5 standard deviations above what the
// unmodified scheduler produces for that application. Only 16-node
// reference-scale runs feed the statistics.
func BaselineStats(baseline []*Trial) map[string]dataset.AppStat {
	byApp := map[string][]float64{}
	for _, tr := range baseline {
		for _, j := range tr.Jobs {
			if j.Nodes == 16 {
				byApp[j.App] = append(byApp[j.App], j.RunTime)
			}
		}
	}
	out := map[string]dataset.AppStat{}
	for app, ts := range byApp {
		out[app] = dataset.AppStat{
			N:    len(ts),
			Mean: stats.Mean(ts),
			Std:  stats.Std(ts),
			Min:  stats.Min(ts),
		}
	}
	return out
}

// VariationCounts counts, per application, the jobs in one trial whose
// run time exceeds the variation threshold of the historical reference
// statistics (z >= 1.5 against the training campaign's per-app mean and
// standard deviation) — the quantity plotted in Figures 4 and 5. Only
// reference-scale 16-node jobs are judged; WS/SS runs at other node
// counts have no matching historical distribution.
func VariationCounts(tr *Trial, ref map[string]dataset.AppStat) map[string]int {
	out := map[string]int{}
	for _, j := range tr.Jobs {
		if j.Nodes != 16 {
			continue
		}
		out[j.App] += 0 // ensure the app appears even with zero counts
		if dataset.LabelWith(ref, j.App, j.RunTime) == dataset.LabelVariation {
			out[j.App]++
		}
	}
	return out
}

// MeanVariationCounts averages VariationCounts across trials.
func MeanVariationCounts(trials []*Trial, ref map[string]dataset.AppStat) map[string]float64 {
	sums := map[string]float64{}
	for _, tr := range trials {
		for app, n := range VariationCounts(tr, ref) {
			sums[app] += float64(n)
		}
	}
	for app := range sums {
		sums[app] /= float64(len(trials))
	}
	return sums
}

// TotalVariation sums MeanVariationCounts over apps — the paper's
// headline "average number of runs experiencing variation" (17 under the
// baseline, 4 under RUSH).
func TotalVariation(trials []*Trial, ref map[string]dataset.AppStat) float64 {
	var total float64
	for _, v := range MeanVariationCounts(trials, ref) {
		total += v
	}
	return total
}

// RunTimesByApp pools job run times per application across trials — the
// distributions behind Figures 6 and 7.
func RunTimesByApp(trials []*Trial) map[string][]float64 {
	out := map[string][]float64{}
	for _, tr := range trials {
		for _, j := range tr.Jobs {
			out[j.App] = append(out[j.App], j.RunTime)
		}
	}
	return out
}

// RunTimesByAppNodes pools run times per (application, node count) — the
// scaling distributions behind Figures 8 and 9.
func RunTimesByAppNodes(trials []*Trial) map[string]map[int][]float64 {
	out := map[string]map[int][]float64{}
	for _, tr := range trials {
		for _, j := range tr.Jobs {
			if out[j.App] == nil {
				out[j.App] = map[int][]float64{}
			}
			out[j.App][j.Nodes] = append(out[j.App][j.Nodes], j.RunTime)
		}
	}
	return out
}

// SummaryByApp summarizes the pooled run-time distribution per app.
func SummaryByApp(trials []*Trial) map[string]stats.Summary {
	out := map[string]stats.Summary{}
	for app, ts := range RunTimesByApp(trials) {
		out[app] = stats.Summarize(ts)
	}
	return out
}

// MaxRunTimeImprovementByNodes returns, per application and node count,
// the percent reduction of the maximum run time under RUSH relative to
// the baseline (positive = RUSH better) — Figure 9's metric and the
// paper's headline "up to 5.8%".
func MaxRunTimeImprovementByNodes(baseline, rush []*Trial) map[string]map[int]float64 {
	b := RunTimesByAppNodes(baseline)
	r := RunTimesByAppNodes(rush)
	out := map[string]map[int]float64{}
	for app, byNodes := range b {
		for nodes, bts := range byNodes {
			rts := r[app][nodes]
			if len(bts) == 0 || len(rts) == 0 {
				continue
			}
			if out[app] == nil {
				out[app] = map[int]float64{}
			}
			out[app][nodes] = 100 * (stats.Max(bts) - stats.Max(rts)) / stats.Max(bts)
		}
	}
	return out
}

// MeanWaitByApp averages queue wait per application across trials.
// excludeImmediate drops the 20% of jobs queued at t=0, matching
// Figure 11's protocol.
func MeanWaitByApp(trials []*Trial, excludeImmediate bool) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, tr := range trials {
		for _, j := range tr.Jobs {
			if excludeImmediate && j.Immediate {
				continue
			}
			sums[j.App] += j.Wait
			counts[j.App]++
		}
	}
	out := map[string]float64{}
	for app, s := range sums {
		if counts[app] > 0 {
			out[app] = s / float64(counts[app])
		}
	}
	return out
}

// Utilization returns the fraction of node-seconds the trial kept busy:
// sum(nodes x run time) / (total nodes x makespan). The paper's abstract
// frames RUSH as improving system utilization; this is the metric.
// totalNodes should exclude permanently held nodes (the noise job) if
// they are not to count as capacity.
func Utilization(tr *Trial, totalNodes int) float64 {
	if tr.Makespan <= 0 || totalNodes <= 0 {
		return 0
	}
	var busy float64
	for _, j := range tr.Jobs {
		busy += float64(j.Nodes) * j.RunTime
	}
	return busy / (float64(totalNodes) * tr.Makespan)
}

// MeanUtilization averages Utilization across trials.
func MeanUtilization(trials []*Trial, totalNodes int) float64 {
	if len(trials) == 0 {
		return 0
	}
	var sum float64
	for _, tr := range trials {
		sum += Utilization(tr, totalNodes)
	}
	return sum / float64(len(trials))
}

// Makespans collects each trial's makespan.
func Makespans(trials []*Trial) []float64 {
	out := make([]float64, len(trials))
	for i, tr := range trials {
		out[i] = tr.Makespan
	}
	return out
}

// MeanMakespan averages trial makespans.
func MeanMakespan(trials []*Trial) float64 { return stats.Mean(Makespans(trials)) }

// AppsIn returns the sorted application names present in the trials.
func AppsIn(trials []*Trial) []string {
	seen := map[string]bool{}
	for _, tr := range trials {
		for _, j := range tr.Jobs {
			seen[j.App] = true
		}
	}
	out := make([]string, 0, len(seen))
	for app := range seen {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}
