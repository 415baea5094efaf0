// Package rush is a full reproduction of "Resource Utilization Aware Job
// Scheduling to Mitigate Performance Variability" (Nichols, Marathe,
// Shoga, Gamblin, Bhatele — IPDPS 2022): an end-to-end pipeline that
// collects longitudinal proxy-application performance data against a
// simulated HPC cluster, trains machine-learning models to predict
// run-time variability from system counters, and uses those predictions
// inside an FCFS+EASY scheduler (RUSH) to delay jobs that would vary.
//
// The pipeline is driven through the six commands under cmd/
// (rush-collect, rush-train, rush-sim, rush-experiments, rush-replay,
// rush-serve); examples/quickstart drives the same three stages from Go
// through internal/core, internal/workload and internal/experiments.
// This package exports nothing. It holds the benchmarks that print the
// paper's figures and tables (bench_test.go) and docs_test.go, which
// checks the documents.
package rush
