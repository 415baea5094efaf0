package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/dataset"
	"rush/internal/obs"
	"rush/internal/telemetry"
	"rush/internal/workload"
)

// This file renders each paper figure/table as a plain-text report. The
// same renderers back cmd/rush-experiments and the repository's benchmark
// harness, so `go test -bench .` regenerates every row the paper plots.
//
// Every renderer writes to an io.Writer and returns the first write
// error, so reports can stream to files or pipes without buffering the
// whole text.

// errWriter funnels a report's many small writes through one sticky
// error check: after the first failure it swallows further output and
// the renderer returns that first error.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// render runs f against a sticky-error wrapper of w and reports the
// first write error.
func render(w io.Writer, f func(io.Writer)) error {
	ew := &errWriter{w: w}
	f(ew)
	return ew.err
}

// ReportFigure1 renders the longitudinal variability study: per
// application, the mean and maximum run time relative to the app's
// minimum, bucketed by week — the view in which the paper's mid-December
// contention spike is visible.
func ReportFigure1(w io.Writer, ds *dataset.Dataset) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "Figure 1: run time relative to per-app minimum, by week\n")
		st := ds.Stats()
		apps := make([]string, 0, len(st))
		for app := range st {
			apps = append(apps, app)
		}
		sort.Strings(apps)

		// Bucket by week of campaign time.
		week := func(t float64) int { return int(t / (7 * core.Day)) }
		maxWeek := 0
		for _, s := range ds.Samples {
			if wk := week(s.StartTime); wk > maxWeek {
				maxWeek = wk
			}
		}
		for _, app := range apps {
			min := st[app].Min
			sums := make([]float64, maxWeek+1)
			maxs := make([]float64, maxWeek+1)
			ns := make([]int, maxWeek+1)
			for _, s := range ds.Samples {
				if s.App != app {
					continue
				}
				wk := week(s.StartTime)
				rel := s.RunTime / min
				sums[wk] += rel
				ns[wk]++
				if rel > maxs[wk] {
					maxs[wk] = rel
				}
			}
			fmt.Fprintf(w, "  %-8s", app)
			for wk := 0; wk <= maxWeek; wk++ {
				if ns[wk] == 0 {
					fmt.Fprintf(w, "    -  ")
					continue
				}
				fmt.Fprintf(w, " %5.2f", sums[wk]/float64(ns[wk]))
			}
			fmt.Fprintf(w, "   (peak %.2fx)\n", maxFloat(maxs))
		}
	})
}

func maxFloat(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ReportTableI renders the dataset inventory.
func ReportTableI(w io.Writer) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "Table I: dataset feature inventory\n")
		counts := map[string]int{}
		for _, c := range telemetry.Schema() {
			counts[c.Table]++
		}
		for _, table := range []string{"sysclassib", "opa_info", "lustre_client"} {
			fmt.Fprintf(w, "  %-14s %3d counters -> %3d features\n", table, counts[table], 3*counts[table])
		}
		fmt.Fprintf(w, "  %-14s %3d ops      -> %3d features\n", "MPI benchmarks", 3, 9)
		fmt.Fprintf(w, "  %-14s              -> %3d features (one-hot type)\n", "proxy apps", 3)
		fmt.Fprintf(w, "  total features: %d\n", dataset.NumFeatures)
	})
}

// ReportFigure3 renders the model-selection comparison.
func ReportFigure3(w io.Writer, scores []core.ModelScore) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "Figure 3: binary variation-prediction F1 (leave-one-app-out CV)\n")
		for _, s := range scores {
			fmt.Fprintf(w, "  %-15s %-10s F1=%.3f accuracy=%.3f\n", s.Model, s.Scope, s.F1, s.Accuracy)
		}
	})
}

// ReportTableII renders the experiment definitions.
func ReportTableII(w io.Writer) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "Table II: scheduling experiments (512-node pod, noise on 1/16 nodes)\n")
		for _, s := range workload.TableII() {
			fmt.Fprintf(w, "  %-4s jobs=%-3d apps=%-60s %s\n",
				s.Name, s.NumJobs, strings.Join(s.RunApps, ","), s.Description)
		}
	})
}

// ReportVariation renders per-app variation counts for one comparison
// (Figure 5 for ADAA; each panel of Figure 4 for ADPA/PDPA).
func ReportVariation(w io.Writer, cmp *Comparison, ref map[string]dataset.AppStat) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: mean runs with significant variation per trial (z >= %.1f)\n",
			cmp.Experiment, dataset.VariationSigma)
		bv := MeanVariationCounts(cmp.Baseline, ref)
		rv := MeanVariationCounts(cmp.RUSH, ref)
		for _, app := range AppsIn(cmp.Baseline) {
			fmt.Fprintf(w, "  %-8s FCFS+EASY=%.1f  RUSH=%.1f\n", app, bv[app], rv[app])
		}
		fmt.Fprintf(w, "  TOTAL    FCFS+EASY=%.1f  RUSH=%.1f\n",
			TotalVariation(cmp.Baseline, ref), TotalVariation(cmp.RUSH, ref))
	})
}

// ReportRunTimeDist renders per-app run-time distributions under both
// policies (Figures 6 and 7).
func ReportRunTimeDist(w io.Writer, cmp *Comparison) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: run-time distributions (seconds)\n", cmp.Experiment)
		bs := SummaryByApp(cmp.Baseline)
		rs := SummaryByApp(cmp.RUSH)
		for _, app := range AppsIn(cmp.Baseline) {
			fb, fr := bs[app], rs[app]
			fmt.Fprintf(w, "  %-8s FCFS+EASY min=%.0f med=%.0f p75=%.0f max=%.0f | RUSH min=%.0f med=%.0f p75=%.0f max=%.0f\n",
				app, fb.Min, fb.Median, fb.P75, fb.Max, fr.Min, fr.Median, fr.P75, fr.Max)
		}
	})
}

// ReportScalingDist renders run-time distributions per (app, node count)
// (Figure 8).
func ReportScalingDist(w io.Writer, cmp *Comparison) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: run-time ranges by node count (seconds)\n", cmp.Experiment)
		bd := RunTimesByAppNodes(cmp.Baseline)
		rd := RunTimesByAppNodes(cmp.RUSH)
		for _, app := range AppsIn(cmp.Baseline) {
			nodeCounts := make([]int, 0, len(bd[app]))
			for n := range bd[app] {
				nodeCounts = append(nodeCounts, n)
			}
			sort.Ints(nodeCounts)
			for _, n := range nodeCounts {
				bmax := maxFloat(bd[app][n])
				rmax := maxFloat(rd[app][n])
				fmt.Fprintf(w, "  %-8s %2d nodes  FCFS+EASY max=%.0f  RUSH max=%.0f\n", app, n, bmax, rmax)
			}
		}
	})
}

// ReportMaxImprovement renders the percent improvement in maximum run
// time per app and node count (Figure 9).
func ReportMaxImprovement(w io.Writer, cmp *Comparison) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: %% improvement in max run time (RUSH vs FCFS+EASY)\n", cmp.Experiment)
		imp := MaxRunTimeImprovementByNodes(cmp.Baseline, cmp.RUSH)
		for _, app := range AppsIn(cmp.Baseline) {
			nodeCounts := make([]int, 0, len(imp[app]))
			for n := range imp[app] {
				nodeCounts = append(nodeCounts, n)
			}
			sort.Ints(nodeCounts)
			for _, n := range nodeCounts {
				fmt.Fprintf(w, "  %-8s %2d nodes  %+.1f%%\n", app, n, imp[app][n])
			}
		}
	})
}

// ReportMakespan renders mean makespans and system utilization for
// several experiments (Figure 10, plus the abstract's utilization
// claim).
func ReportMakespan(w io.Writer, cmps []*Comparison) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "Figure 10: mean makespan (seconds) and utilization\n")
		for _, cmp := range cmps {
			nodes := trialNodes(cmp)
			bm, rm := MeanMakespan(cmp.Baseline), MeanMakespan(cmp.RUSH)
			bu, ru := MeanUtilization(cmp.Baseline, nodes), MeanUtilization(cmp.RUSH, nodes)
			fmt.Fprintf(w, "  %-4s FCFS+EASY=%.0f (util %.0f%%)  RUSH=%.0f (util %.0f%%)  (delta %+.0f s)\n",
				cmp.Experiment, bm, 100*bu, rm, 100*ru, rm-bm)
		}
	})
}

// trialNodes returns the node count the comparison's trials ran on,
// falling back to the paper's 512-node reservation for trials recorded
// before topologies were stamped (TopoNodes zero).
func trialNodes(cmp *Comparison) int {
	for _, trials := range [][]*Trial{cmp.Baseline, cmp.RUSH} {
		for _, tr := range trials {
			if tr.TopoNodes > 0 {
				return tr.TopoNodes
			}
		}
	}
	return cluster.Pod512().Nodes
}

// ReportWaitTimes renders per-app mean wait times, excluding jobs queued
// at t=0 as in Figure 11.
func ReportWaitTimes(w io.Writer, cmp *Comparison) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: mean wait time per app, staggered jobs only (seconds)\n", cmp.Experiment)
		bw := MeanWaitByApp(cmp.Baseline, true)
		rw := MeanWaitByApp(cmp.RUSH, true)
		for _, app := range AppsIn(cmp.Baseline) {
			fmt.Fprintf(w, "  %-8s FCFS+EASY=%.0f  RUSH=%.0f  (delta %+.0f s)\n", app, bw[app], rw[app], rw[app]-bw[app])
		}
	})
}

// ReportFaults renders per-policy fault-injection outcomes averaged over
// trials: injected node failures and job kills, jobs abandoned after
// exhausting their retry budget, execution time lost to kills, and —
// for RUSH — how often and for how long the gate ran degraded.
func ReportFaults(w io.Writer, cmp *Comparison) error {
	mean := func(trials []*Trial, f func(*Trial) float64) float64 {
		if len(trials) == 0 {
			return 0
		}
		var s float64
		for _, tr := range trials {
			s += f(tr)
		}
		return s / float64(len(trials))
	}
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: fault-injection outcomes (mean per trial)\n", cmp.Experiment)
		for _, side := range []struct {
			name   string
			trials []*Trial
		}{{"FCFS+EASY", cmp.Baseline}, {"RUSH", cmp.RUSH}} {
			fmt.Fprintf(w, "  %-9s nodefail=%.1f kills=%.1f failedjobs=%.1f lostwork=%.0fs",
				side.name,
				mean(side.trials, func(t *Trial) float64 { return float64(t.NodeFailures) }),
				mean(side.trials, func(t *Trial) float64 { return float64(t.JobKills) }),
				mean(side.trials, func(t *Trial) float64 { return float64(t.FailedJobs) }),
				mean(side.trials, func(t *Trial) float64 { return t.LostWork }))
			if side.name == "RUSH" {
				fmt.Fprintf(w, " degraded=%.1f trips=%.1f downtime=%.0fs",
					mean(side.trials, func(t *Trial) float64 { return float64(t.GateDegraded) }),
					mean(side.trials, func(t *Trial) float64 { return float64(t.BreakerTrips) }),
					mean(side.trials, func(t *Trial) float64 { return t.DegradedTime }))
			}
			io.WriteString(w, "\n")
		}
	})
}

// ReportMetrics renders the per-policy metrics of one comparison,
// merging every trial's snapshot (counters and histogram buckets sum,
// gauges keep their peak). Trials run without Config.Metrics carry no
// snapshot and are noted as such.
func ReportMetrics(w io.Writer, cmp *Comparison) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "%s: metrics (summed over trials; gauges are peaks)\n", cmp.Experiment)
		for _, side := range []struct {
			name   string
			trials []*Trial
		}{{"FCFS+EASY", cmp.Baseline}, {"RUSH", cmp.RUSH}} {
			snaps := make([]*obs.Snapshot, 0, len(side.trials))
			for _, tr := range side.trials {
				if tr.Metrics != nil {
					snaps = append(snaps, tr.Metrics)
				}
			}
			fmt.Fprintf(w, "  %s (%d/%d trials with metrics)\n", side.name, len(snaps), len(side.trials))
			if len(snaps) == 0 {
				fmt.Fprintf(w, "    (none recorded; run with Config.Metrics / -metrics)\n")
				continue
			}
			m := obs.Merge(snaps...)
			for _, c := range m.Counters {
				fmt.Fprintf(w, "    %-40s %12.0f\n", c.Name, c.Value)
			}
			for _, g := range m.Gauges {
				fmt.Fprintf(w, "    %-40s %12g (peak)\n", g.Name, g.Value)
			}
			for _, h := range m.Histograms {
				fmt.Fprintf(w, "    %-40s count=%d sum=%.0f\n", h.Name, h.Count, h.Sum)
				for i, edge := range h.Edges {
					if h.Counts[i] == 0 {
						continue
					}
					fmt.Fprintf(w, "      <= %-8g %d\n", edge, h.Counts[i])
				}
				if over := h.Counts[len(h.Counts)-1]; over > 0 {
					fmt.Fprintf(w, "      >  %-8g %d\n", h.Edges[len(h.Edges)-1], over)
				}
			}
		}
	})
}

// ReportDrift renders a drift-scenario sweep: per scenario, the mean
// drift-detection count, the mean detection latency after the scenario's
// drift onset (telemetry drift start or app-rotation start; "-" when the
// scenario has no onset or nothing was detected), and the mean
// retrain/promotion/rollback counts.
func ReportDrift(w io.Writer, rows []DriftRow) error {
	return render(w, func(w io.Writer) {
		fmt.Fprintf(w, "drift scenarios (mean per trial, RUSH with lifecycle)\n")
		fmt.Fprintf(w, "  %-14s %9s %11s %8s %8s %9s\n",
			"scenario", "detected", "latency", "retrain", "promote", "rollback")
		for _, row := range rows {
			n := float64(len(row.Trials))
			if n == 0 {
				continue
			}
			var det, retr, prom, roll float64
			var lat float64
			latN := 0
			onset := row.Scenario.Faults.Drift.Start
			if row.Scenario.AppSeverity > 0 && (onset == 0 || row.Scenario.AppStart < onset) {
				onset = row.Scenario.AppStart
			}
			hasOnset := row.Scenario.Faults.Drift.Enabled() || row.Scenario.AppSeverity > 0
			for _, tr := range row.Trials {
				det += float64(tr.DriftDetections)
				retr += float64(tr.Retrains)
				prom += float64(tr.Promotions)
				roll += float64(tr.Rollbacks)
				if hasOnset && tr.FirstDriftAt >= 0 && tr.DriftDetections > 0 {
					lat += tr.FirstDriftAt - onset
					latN++
				}
			}
			latency := "-"
			if latN > 0 {
				latency = fmt.Sprintf("%.0fs", lat/float64(latN))
			}
			fmt.Fprintf(w, "  %-14s %9.1f %11s %8.1f %8.1f %9.1f\n",
				row.Scenario.Name, det/n, latency, retr/n, prom/n, roll/n)
		}
	})
}
