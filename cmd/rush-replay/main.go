// Command rush-replay replays a Standard Workload Format (SWF) trace —
// e.g. a log from the Parallel Workloads Archive — through the simulated
// machine under FCFS+EASY, RUSH, or the canary gate, streaming the trace
// off disk so that year-scale, million-job logs replay in bounded
// memory. Gzip-compressed traces (.gz) and http(s) URLs are read
// directly.
//
// Usage:
//
//	rush-replay -swf trace.swf.gz -topo quartz
//	rush-replay -swf trace.swf -policy rush -predictor predictor.json
//	rush-replay -swf https://example.org/LLNL-Thunder.swf.gz -max-jobs 100000
//	rush-replay -swf trace.swf -trials 3 -workers 3 -metrics -mem-sample 3600
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"rush/internal/cliflags"
	"rush/internal/cluster"
	"rush/internal/core"
	"rush/internal/experiments"
	"rush/internal/faults"
	"rush/internal/parallel"
	"rush/internal/sched"
	"rush/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rush-replay: ")

	swfPath := flag.String("swf", "", "SWF trace: a file path (.gz transparently decompressed) or an http(s) URL (required)")
	policy := flag.String("policy", "baseline", "policy: baseline, rush, or canary")
	predPath := flag.String("predictor", "predictor.json", "trained predictor JSON (required for -policy rush)")
	trials := cliflags.Trials(1)
	seed := cliflags.Seed(100)
	coresPerNode := flag.Int("cores-per-node", 0, "cores per simulated node for SWF processor counts (0 = default 36)")
	maxNodes := flag.Int("max-nodes", 0, "drop jobs wider than this many nodes (0 = default 512)")
	maxJobs := flag.Int("max-jobs", 0, "truncate the trace after this many jobs (0 = whole trace)")
	maxSimTime := flag.Float64("max-sim-time", 0, "abort after this much simulated time in seconds (0 = unbounded)")
	memSample := flag.Float64("mem-sample", 0, "sample the Go heap every this many simulated seconds into the metrics registry (0 disables)")
	sjf := flag.Bool("sjf", false, "use shortest-job-first queue ordering instead of FCFS")
	backfill := flag.String("backfill", "easy", "backfill discipline: easy, none, or conservative")
	nodeMTBF := flag.Float64("node-mtbf", 0, "per-node mean time between failures in seconds (0 disables node faults)")
	nodeMTTR := flag.Float64("node-mttr", 0, "per-node mean time to repair in seconds (default 1800 when -node-mtbf is set)")
	modelOutage := flag.Float64("model-outage", 0, "fraction of time the predictor service is unreachable, in [0,1]")
	tracePath := cliflags.Trace()
	metrics := cliflags.Metrics()
	pprofPath := cliflags.Pprof()
	workers := cliflags.Workers()
	topoFlag := cliflags.Topo()
	flag.Parse()

	if *swfPath == "" {
		log.Fatal("-swf is required (a file path or URL of an SWF trace)")
	}
	if *trials <= 0 {
		log.Fatalf("trials must be positive, got %d", *trials)
	}
	topo, err := cluster.Parse(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	stopProfile, err := cliflags.StartCPUProfile(*pprofPath)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	cfg := experiments.Config{
		Topo: topo, UseSJF: *sjf,
		MaxSimTime: *maxSimTime, MemSample: *memSample,
		Trace: *tracePath != "", Metrics: *metrics || *memSample > 0,
		Faults: faults.Config{NodeMTBF: *nodeMTBF, NodeMTTR: *nodeMTTR, ModelOutage: *modelOutage},
	}
	if err := cfg.Faults.Validate(); err != nil {
		log.Fatal(err)
	}
	switch *backfill {
	case "easy":
		cfg.Backfill = sched.EASYBackfill
	case "none":
		cfg.Backfill = sched.NoBackfill
	case "conservative":
		cfg.Backfill = sched.ConservativeBackfill
	default:
		log.Fatalf("unknown backfill mode %q", *backfill)
	}

	pol := experiments.Baseline
	var pred *core.Predictor
	switch *policy {
	case "baseline":
	case "canary":
		pol = experiments.Canary
	case "rush":
		pol = experiments.RUSH
		blob, err := os.ReadFile(*predPath)
		if err != nil {
			log.Fatal(err)
		}
		if pred, err = core.LoadPredictor(blob); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %s predictor (training CV F1 %.3f)", pred.ModelName, pred.CVF1)
	default:
		log.Fatalf("unknown policy %q (want baseline, rush, or canary)", *policy)
	}

	// A URL is fetched once into a temp file so multi-trial fan-out can
	// re-open it per trial without re-downloading.
	path := *swfPath
	if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
		if path, err = download(path); err != nil {
			log.Fatal(err)
		}
		defer os.Remove(path)
	}

	// Each trial re-opens and re-streams the trace: streams are
	// single-pass, and per-trial readers keep the fan-out embarrassingly
	// parallel.
	sums, err := parallel.Map(*workers, *trials, func(i int) (*experiments.ReplaySummary, error) {
		opts := workload.SWFOptions{
			CoresPerNode: *coresPerNode, MaxNodes: *maxNodes,
			MaxJobs: *maxJobs, Seed: *seed + int64(i),
		}
		r, err := workload.OpenSWF(path)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return experiments.ReplayStream(replayName(path), workload.NewSWFStream(r, opts), pol, pred, *seed+int64(i), cfg)
	})
	if err != nil {
		log.Fatal(err)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		for _, sum := range sums {
			if _, err := f.Write(sum.Trace); err != nil {
				log.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote event trace %s", *tracePath)
	}

	for i, sum := range sums {
		fmt.Printf("trial %d: policy=%s jobs=%d failed=%d makespan=%.0fs (%.1f days)\n",
			i, sum.Policy, sum.Jobs, sum.FailedJobs, sum.Makespan, sum.Makespan/86400)
		fmt.Printf("  wait: mean=%.1fs std=%.1fs max=%.0fs\n", sum.Wait.Mean, sum.Wait.Std(), sum.Wait.Max)
		fmt.Printf("  run: mean=%.1fs std=%.1fs max=%.0fs  slowdown: mean=%.3f max=%.3f high-variation=%d (%.2f%%)\n",
			sum.Run.Mean, sum.Run.Std(), sum.Run.Max,
			sum.Slowdown.Mean, sum.Slowdown.Max, sum.HighVariation,
			100*float64(sum.HighVariation)/float64(max(sum.Jobs, 1)))
		if sum.GateEvaluations > 0 {
			fmt.Printf("  gate: evals=%d vetoes=%d overrides=%d degraded=%d trips=%d\n",
				sum.GateEvaluations, sum.GateVetoes, sum.ThresholdOverrides, sum.GateDegraded, sum.BreakerTrips)
		}
		if cfg.Faults.Enabled() {
			fmt.Printf("  faults: nodefail=%d kills=%d lostwork=%.0fs\n",
				sum.NodeFailures, sum.JobKills, sum.LostWork)
		}
		if sum.PeakHeapBytes > 0 {
			fmt.Printf("  peak heap: %.1f MB\n", float64(sum.PeakHeapBytes)/(1<<20))
		}
	}
	if *metrics && len(sums) > 0 && sums[0].Metrics != nil {
		fmt.Println("metrics (trial 0):")
		for _, c := range sums[0].Metrics.Counters {
			fmt.Printf("  %s %v\n", c.Name, c.Value)
		}
		for _, g := range sums[0].Metrics.Gauges {
			fmt.Printf("  %s %v\n", g.Name, g.Value)
		}
	}
}

// replayName derives the experiment label from the trace filename.
func replayName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".gz")
	base = strings.TrimSuffix(base, ".swf")
	if base == "" {
		return "swf-replay"
	}
	return base
}

// download fetches an SWF trace URL into a temp file and returns its
// path.
func download(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fetch %s: %s", url, resp.Status)
	}
	suffix := ".swf"
	if strings.HasSuffix(url, ".gz") {
		suffix = ".swf.gz"
	}
	f, err := os.CreateTemp("", "rush-replay-*"+suffix)
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	log.Printf("downloaded %s", url)
	return f.Name(), nil
}
