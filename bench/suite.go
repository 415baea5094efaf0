package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"rush/internal/stats"
)

// workloads lists the benchmark's workloads in their default order.
var workloads = []workloadSpec{
	{
		name:   "replay-open",
		why:    "30 simulated days of SWF at light load on Quartz (a quarter of the nodes busy): per-job bookkeeping spread over every layer, the allocation-heavy one",
		setups: 5,
		setup:  setupReplay(replayOpenShape),
	},
	{
		name:   "replay-saturated",
		why:    "the same stream above capacity, run to drain: contention re-integration and event re-timing dominate, allocation is low",
		setups: 5,
		setup:  setupReplay(replaySaturatedShape),
	},
	{
		name:   "paper-trials",
		why:    "the paper's ADAA/WS/SS trials on Pod512 under a trained AdaBoost gate: the telemetry sampler and the gate are priced here only",
		setups: 1,
		setup:  setupPaper,
	},
	{
		name:   "serve-wire",
		why:    "closed-loop ingest/decide/check/eval mix over a unix socket: JSON framing, round trips, decision cache and batcher do the work",
		setups: 3,
		setup:  setupServe,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type runOptions struct {
	seed    int64
	seconds float64
	reps    int
	traced  bool
	mini    bool // tests only: miniature inputs
}

// metricValue is one reported number in the contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object for one workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo records where and on what the numbers were taken.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
		Commit:     commit(),
		LoadStart:  loadAvg(),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(raw)); len(f) >= 3 {
		return strings.Join(f[:3], " ")
	}
	return "unknown"
}

// commit asks git for the checkout's revision; a benchmark checkout that
// is not a repository reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs one workload in this process (name != "") or all four,
// each in a fresh process of its own, and prints per workload every
// metric of the selected form by name with its value. A process per
// workload because peak_heap_mb is the process's high-water mark and GC
// pacing carries over: a workload measured after another in one process
// would report the other's heap. The last line is JSON: the contract's
// object for a single workload, or {"host":..., "workloads":{name:
// object}} for the whole suite.
func runSuite(out io.Writer, name string, opts runOptions) error {
	host := readHost()
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s loadavg=%s\n",
		host.NProc, host.GOMAXPROCS, host.Go, host.CPU, host.Commit, host.LoadStart)

	var last any
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
		}
		res, err := runWorkload(out, w, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loadavg at end: %s\n", loadAvg())
		last = res
	} else {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		results := map[string]result{}
		for _, w := range workloads {
			res, _, err := runChild(out, exe, w.name, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			results[w.name] = res
		}
		host.LoadEnd = loadAvg()
		last = struct {
			Host      hostInfo          `json:"host"`
			Workloads map[string]result `json:"workloads"`
		}{host, results}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// disturbedMark opens the line a run prints when its repetitions' spread
// exceeds disturbedSpread.
const disturbedMark = "DISTURBED:"

// runChild runs one workload in a fresh process, passes what it printed
// for people through to out, and parses the JSON on its last line.
// disturbed reports whether the child flagged its own timing.
func runChild(out io.Writer, exe, name string, opts runOptions) (res result, disturbed bool, err error) {
	trace := "0"
	if opts.traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(opts.reps),
		"-trace", trace)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return result{}, false, err
	}
	text := bytes.TrimSpace(raw)
	disturbed = bytes.Contains(text, []byte(disturbedMark))
	cut := bytes.LastIndexByte(text, '\n')
	if out != nil && cut > 0 {
		fmt.Fprintf(out, "%s\n", text[:cut])
	}
	if err := json.Unmarshal(text[cut+1:], &res); err != nil {
		return result{}, false, fmt.Errorf("parsing child output: %w", err)
	}
	return res, disturbed, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload sets one workload up, measures it in the selected form and
// prints its metrics.
func runWorkload(out io.Writer, w workloadSpec, opts runOptions) (result, error) {
	p, err := prepare(w, opts.seed, opts.mini)
	if err != nil {
		return result{}, err
	}
	defer p.u.close()

	var (
		values map[string]float64
		defs   []metricDef
		m      measurement
	)
	if opts.traced {
		defs = perLayer
		var budget []budgetRow
		if values, budget, m, err = runTraced(w, p, opts); err != nil {
			return result{}, err
		}
		printBudget(out, w.name, budget, values, bestDecile(m.durs))
	} else {
		defs = endToEnd
		m = measure(p.u, false, opts.reps, opts.seconds)
		values = endToEndValues(p, m)
	}

	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted(),
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	spread := repSpread(m.durs)
	fmt.Fprintf(out, "\n%s (seed %d, %d reps x %d ops, rep p50 %.4fs, spread %.3f)\n",
		w.name, opts.seed, len(m.durs), m.opsPerRep, stats.Median(m.durs), spread)
	if spread > disturbedSpread {
		fmt.Fprintf(out, "  "+disturbedMark+" the median repetition sat %.0f%% above the best decile; something shared the core\n", spread*100)
	}
	if m.failed > 0 {
		fmt.Fprintf(out, "  FAILED: %d of %d ops: %s\n", m.failed, m.attempted(), m.why)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if ok || d.appliesTo(w.name) {
				// A metric the catalogue promises for this workload must
				// be a number; anything else is a harness bug, and the
				// run says so instead of printing a made-up value.
				res.Correct = false
				fmt.Fprintf(tw, "  %s\tMISSING\t%s\n", d.name, d.unit)
			}
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.appliesTo(w.name) {
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.name, formatValue(v), d.unit)
		}
	}
	tw.Flush()
	return res, nil
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// endToEndValues derives the five end-to-end metrics from a timed loop.
func endToEndValues(p prepared, m measurement) map[string]float64 {
	ops := float64(m.attempted())
	return map[string]float64{
		"setup_s":       p.setupS,
		"ops_per_s":     float64(m.opsPerRep) / bestDecile(m.durs),
		"allocs_per_op": float64(m.mallocs) / ops,
		"bytes_per_op":  float64(m.bytes) / ops,
		"peak_heap_mb":  float64(m.heapSys) / (1 << 20),
	}
}
