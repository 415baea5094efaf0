// Command bench is the repository's one repeatable benchmark: four
// workloads, five end-to-end metrics that repeat within a tenth on a
// shared two-vCPU host, and a separate traced run that prices every
// layer from outside. See README.md for what was measured to design it.
//
//	bash bench/run.sh                       all four workloads, untraced
//	bash bench/run.sh -workload serve-wire  one workload
//	bash bench/run.sh -trace 1              the traced run (layer budget)
//	bash bench/run.sh -list                 every metric, unit, bound
//	bash bench/run.sh -agree                two suites, compared
//
// The last line of standard output is one JSON object; everything above
// it is for people.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeed drives trace generation, request scripts and trial seeds
// when -seed is not given.
const defaultSeed = 4242

func main() {
	// One P before anything else: each simulated trial, and a
	// closed-loop client/server pair, is serial work, and on two shared
	// vCPUs the second P only lets a neighbour's noise in (README.md).
	runtime.GOMAXPROCS(1)

	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", defaultSeed, "seed for generated inputs")
		seconds = flag.Float64("seconds", 20, "seconds of timed repetitions per workload")
		reps    = flag.Int("reps", 0, "timed repetitions per workload (overrides -seconds)")
		trace   = flag.Int("trace", 0, "1 runs the traced form and reports per-layer metrics")
		list    = flag.Bool("list", false, "print every metric with unit, direction, bound and workloads")
		agree   = flag.Bool("agree", false, "run the untraced suite twice in fresh processes and compare")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace != 0}

	var err error
	switch {
	case *list:
		printList(os.Stdout)
	case *agree:
		err = runAgree(os.Stdout, opts)
	default:
		err = runSuite(os.Stdout, *name, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
