// Package cliflags centralizes the flag definitions the rush commands
// share, so -seed, -trials, -workers, and the observability flags
// (-trace, -metrics, -pprof) are declared once — one spelling, one help
// string, one default — instead of being copy-pasted into every main.
//
// Helpers register on flag.CommandLine (all commands use the default
// set) and return the value pointer, exactly like the flag package's own
// constructors; call them before flag.Parse.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// Seed registers -seed with the given default. Every stochastic
// component derives its stream from this one seed, so a run is
// reproducible bit-for-bit from the flag value.
func Seed(def int64) *int64 {
	return flag.Int64("seed", def, "base random seed; identical seeds reproduce runs bit-for-bit")
}

// Trials registers -trials with the given default.
func Trials(def int) *int {
	return flag.Int("trials", def, "trials per policy")
}

// Workers registers -workers.
func Workers() *int {
	return flag.Int("workers", 0, "concurrent trial workers (0 = GOMAXPROCS, 1 = serial); any value produces identical output")
}

// Topo registers -topo: the simulated machine's topology. The value is
// "pod512" (the paper's single-pod reservation, the default), "quartz"
// (the full 2,988-node machine), or a synthetic "N,podsize" pair such as
// "4096,512"; parse it with cluster.Parse after flag.Parse. The default
// keeps existing invocations bit-identical.
func Topo() *string {
	return flag.String("topo", "pod512", `machine topology: "pod512", "quartz", or "N,podsize" (e.g. "4096,512")`)
}

// Trace registers -trace: the path for a structured JSONL event trace.
// Traces are keyed by simulated time and written in trial order, so the
// file is byte-identical at any -workers value.
func Trace() *string {
	return flag.String("trace", "", "write a structured JSONL event trace to this file")
}

// Metrics registers -metrics: record per-trial metrics registries and
// print the merged metrics report.
func Metrics() *bool {
	return flag.Bool("metrics", false, "record per-trial metrics and print the metrics report")
}

// Listen registers -listen: the serving address for daemon commands. A
// "unix:/path" value binds a unix domain socket, anything else TCP.
func Listen(def string) *string {
	return flag.String("listen", def, `listen address ("unix:/path" for a unix socket, host:port for TCP)`)
}

// MaxInflight registers -max-inflight: the bounded decision queue depth
// beyond which the serving daemon answers BUSY (backpressure).
func MaxInflight(def int) *int {
	return flag.Int("max-inflight", def, "max concurrently processed decision requests before replying BUSY")
}

// BatchWindow registers -batch-window: how long the serving daemon's
// inference batcher waits after the first queued decision to collect
// more. Zero batches greedily (take what is queued, never wait).
func BatchWindow(def time.Duration) *time.Duration {
	return flag.Duration("batch-window", def, "inference batching window (0 = greedy: batch whatever is already queued)")
}

// Pprof registers -pprof: the path for a CPU profile of the whole run.
func Pprof() *string {
	return flag.String("pprof", "", "write a CPU profile to this file")
}

// StartCPUProfile begins profiling into path when it is non-empty and
// returns a stop function to defer; with an empty path it returns a
// no-op stop. The stop function flushes and closes the profile.
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cliflags: create profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cliflags: start profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
