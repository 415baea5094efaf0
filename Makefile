GO ?= go

.PHONY: build test race race-hot fuzz-smoke loc bench-module bench-smoke bench-obs bench-gate bench-train bench-lifecycle bench-sched bench-serve bench-engine bench-replay vet staticcheck fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot focuses the race detector on the worker-pool fan-out paths
# (the pool itself plus the trial/scenario fan-out that exercises it
# hardest), so a data race there fails fast even when the full race
# target is skipped locally.
race-hot:
	$(GO) test -race ./internal/parallel/... ./internal/experiments/...

# fuzz-smoke runs each fuzz target for ten seconds: no bytes LoadModel
# accepts may make a prediction panic or hang, no bytes may panic
# the SWF scanner, make the two SWF loaders disagree, or yield a job the
# replay driver cannot run, and no sequence of appends, same-instant
# mutations, prunes and window queries may make simnet's history ring
# answer differently from the linear slice it is checked against.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime 10s ./internal/mlkit/
	$(GO) test -run '^$$' -fuzz '^FuzzSWFStream$$' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzHistoryOps$$' -fuzztime 10s ./internal/simnet/

# loc prints non-test Go lines outside bench/ per package and fails when
# the total passes LOC_CEILING, the count at the change that last cut
# code, so a change that grows the tree has to say so by raising it.
LOC_CEILING = 17455
loc:
	@find . -path ./bench -prune -o -name '*.go' -not -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total (ceiling $(LOC_CEILING))\n", t; \
				if (t > $(LOC_CEILING)) { print "loc: non-test Go grew past the ceiling; cut, or raise LOC_CEILING and say why"; exit 1 } }'

# bench-module compiles, vets and tests bench/. It is a Go module of its
# own (it imports rush/internal/... through a replace directive), so the
# root module's `go test ./...` never builds it and removing an API it
# calls would otherwise break the repository benchmark unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-smoke proves the parallel speedup path runs end to end: one
# iteration of the speedup benchmark at every worker count.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkParallelSpeedup -benchtime 1x .

# bench-obs guards the zero-overhead-when-disabled observability
# contract: a scheduling pass with no observer attached must perform
# zero heap allocations. The grep fails the target on any non-zero
# allocs/op in the benchmark output.
bench-obs:
	@out=$$($(GO) test -run '^$$' -bench BenchmarkPassNoObserver -benchmem ./internal/sched/); \
	echo "$$out"; \
	echo "$$out" | grep -q ' 0 allocs/op' || { echo "bench-obs: Pass allocates with a nil observer"; exit 1; }

# bench-gate guards the gate-decision fast path on both scopes. A
# steady-state decision on the 512-node machine-wide scope must perform
# zero heap allocations. The two job-scope decisions a RUSH trial is made
# of — the first ask on a freshly allocated 16-node set, every row of the
# window computed, and the re-ask two ticks later — must perform zero
# allocations and allocate zero bytes: the sampler's row store computes
# rows in place, so a growing arena or a per-decision buffer shows here.
# The ensemble inference inside those decisions is also checked alone
# (BenchmarkPredictProba: PredictProbaInto must not allocate). Reference
# numbers live in BENCH_gate.json.
bench-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkGateDecision|BenchmarkPredictProba' -benchmem .); \
	echo "$$out"; \
	echo "$$out" | grep 'GateDecision/fast' | grep -q ' 0 allocs/op' || { echo "bench-gate: gate decision allocates on the fast path"; exit 1; }; \
	echo "$$out" | grep 'BenchmarkPredictProba' | grep -q ' 0 allocs/op' || { echo "bench-gate: PredictProbaInto allocates"; exit 1; }; \
	job=$$(echo "$$out" | grep 'GateDecision/job/'); \
	[ $$(echo "$$job" | grep -c .) -eq 2 ] || { echo "bench-gate: expected 2 job-scope sub-benchmarks"; exit 1; }; \
	if echo "$$job" | grep -v ' 0 B/op.* 0 allocs/op' | grep -q .; then \
		echo "bench-gate: job-scope gate decision allocates"; exit 1; \
	fi

# bench-train guards the training path: the allocs-per-node regression
# test (a Fit may allocate its fixed working set plus the stored nodes,
# nothing per node beyond that) and one iteration of the headline
# full-candidate Forest fit benchmark, to prove the path runs end to
# end. Reference numbers live in BENCH_train.json.
bench-train:
	$(GO) test -run TestFitAllocBudget ./internal/mlkit/
	$(GO) test -run '^$$' -bench '^BenchmarkFit$$/^Forest$$' -benchtime 1x -benchmem .

# bench-lifecycle guards the model-lifecycle cost contract: a scheduling
# pass on a RUSH-gated scheduler whose DecisionHook is nil (lifecycle
# compiled in but disabled) must perform zero heap allocations.
bench-lifecycle:
	@out=$$($(GO) test -run '^$$' -bench BenchmarkPassNilLifecycle -benchmem ./internal/sched/); \
	echo "$$out"; \
	echo "$$out" | grep -q ' 0 allocs/op' || { echo "bench-lifecycle: Pass allocates with a nil lifecycle hook"; exit 1; }

# bench-sched guards the availability-timeline scheduling pass on two
# axes: a steady-state deep-queue pass with a nil observer must perform
# zero heap allocations at every depth (1k/10k/100k), and the 100k-deep
# pass must stay under a 100µs regression budget (the measured value is
# ~3µs; the reference scanner of internal/sched/reference_test.go takes
# milliseconds — see BENCH_sched.json). Only the fast/ sub-benchmark
# lines are inspected; the reference/ lines are the test-side oracle,
# there for comparison.
bench-sched:
	@out=$$($(GO) test -run '^$$' -bench BenchmarkDeepQueuePass -benchmem ./internal/sched/); \
	echo "$$out"; \
	fast=$$(echo "$$out" | grep 'DeepQueuePass/fast/'); \
	[ $$(echo "$$fast" | grep -c .) -eq 3 ] || { echo "bench-sched: expected 3 fast sub-benchmarks"; exit 1; }; \
	if echo "$$fast" | grep -v ' 0 allocs/op' | grep -q .; then \
		echo "bench-sched: steady-state fast pass allocates"; exit 1; \
	fi; \
	echo "$$fast" | awk '/fast\/q100000/ { if ($$3+0 > 100000) { printf "bench-sched: 100k-queue fast pass regressed to %s ns/op (budget 100000)\n", $$3; exit 1 } }'

# bench-serve guards the serving daemon's steady-state decision path: a
# cached counters-only decision through Server.Handle must perform zero
# heap allocations and stay under a 2µs regression budget (the measured
# value is ~140ns — see BENCH_serve.json, which also records end-to-end
# decisions/sec over a unix socket at 1/8/64 clients).
bench-serve:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkCachedDecision' -benchmem ./internal/serve/); \
	echo "$$out"; \
	echo "$$out" | grep 'CachedDecision' | grep -q ' 0 allocs/op' || { echo "bench-serve: cached decision allocates"; exit 1; }; \
	echo "$$out" | awk '/CachedDecision/ { if ($$3+0 > 2000) { printf "bench-serve: cached decision regressed to %s ns/op (budget 2000)\n", $$3; exit 1 } }'

# bench-engine guards the full-Quartz acceptance target: a month-long
# 103k-job workload on the 2,988-node machine, simulated end to end
# through the sharded contention engine, must finish inside a 10-second
# wall-clock budget (the measured value is ~0.4s — see BENCH_engine.json,
# which also records the synthetic 4,096-node shape and the last
# measured rows of a full recompute on every change) and inside a
# 4,750 allocation budget (2x the measured 2,373: what is left is the
# warm-up of the job pool, the lanes and the history ring, so one
# allocation per job anywhere in the engine is twenty times over). It
# also guards the unit of work a saturated machine is made of: one
# contention change with 760 jobs running on Quartz and the filesystem
# past its threshold (BenchmarkContentionChange) must stay under 24µs,
# twice the measured ~12µs, and allocate nothing: recording the history
# epoch, re-integrating the jobs and rebuilding the event heap all work
# in place.
bench-engine:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkEngineMonth/quartz/fast' -benchtime 1x -benchmem -timeout 600s .); \
	echo "$$out"; \
	echo "$$out" | awk '/EngineMonth\/quartz\/fast/ { if ($$3+0 > 10000000000) { printf "bench-engine: month-long Quartz run regressed to %s ns/op (budget 10s)\n", $$3; exit 1 } }' || exit 1; \
	echo "$$out" | awk '/EngineMonth\/quartz\/fast/ { for (i=1; i<NF; i++) if ($$(i+1) == "allocs/op") { if ($$i+0 > 4750) { printf "bench-engine: month-long Quartz run regressed to %s allocs/op (budget 4750)\n", $$i; exit 1 } } }' || exit 1
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkContentionChange/quartz/saturated' -benchmem .); \
	echo "$$out"; \
	sat=$$(echo "$$out" | grep 'ContentionChange/quartz/saturated'); \
	[ -n "$$sat" ] || { echo "bench-engine: saturated contention-change benchmark did not run"; exit 1; }; \
	echo "$$sat" | grep -q ' 0 allocs/op' || { echo "bench-engine: a contention change allocates (want 0 allocs/op)"; exit 1; }; \
	echo "$$sat" | awk '{ if ($$3+0 > 24000) { printf "bench-engine: saturated contention change regressed to %s ns/op (budget 24000)\n", $$3; exit 1 } }'

# bench-replay guards the long-horizon acceptance target: a year-long
# ~1M-job workload streamed through the bounded-memory replay driver on
# full Quartz must finish inside a 10-second wall-clock budget per
# simulated year (the measured value is ~3s — see BENCH_replay.json,
# which also records the SWF-scanner variant that parses a million-line
# trace on the way in) and inside a 64MB peak-heap budget (the measured
# flat profile is ~5MB; a retained job history would be hundreds of MB).
# The heap check reads the benchmark's peak-heap-MB metric, which is the
# high-water mark of daily runtime.ReadMemStats samples over the run.
bench-replay:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkReplayYear/quartz/stream' -benchtime 1x -benchmem -timeout 600s .); \
	echo "$$out"; \
	echo "$$out" | awk '/ReplayYear\/quartz\/stream/ { if ($$3+0 > 10000000000) { printf "bench-replay: year-long Quartz replay regressed to %s ns/op (budget 10s)\n", $$3; exit 1 } }' || exit 1; \
	echo "$$out" | awk '/ReplayYear\/quartz\/stream/ { for (i=1; i<NF; i++) if ($$(i+1) == "peak-heap-MB") { if ($$i+0 > 64) { printf "bench-replay: year-long replay peak heap grew to %s MB (budget 64)\n", $$i; exit 1 } } }' || exit 1

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools' staticcheck when the binary is on
# PATH and falls back to go vet otherwise, so CI gets the stronger
# analysis where available without making it an install-time dependency.
# The second invocation enforces the godoc contract on the scheduler,
# the engine core, and the workload loaders (ST1000 package comment,
# ST1020 exported-symbol doc comments): every exported scheduler,
# simulation-engine, contention-state, and trace-ingest symbol
# documents its determinism and allocation behaviour, and these checks
# keep the comments from silently disappearing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
		staticcheck -checks ST1000,ST1020 ./internal/sched/ ./internal/sim/ ./internal/simnet/ ./internal/workload/; \
	else \
		echo "staticcheck: binary not found, falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci is the full gate: formatting, static analysis (vet plus
# staticcheck when installed, including the sched/sim/simnet godoc
# checks), the test suite under the race detector (race subsumes
# race-hot; both run so the hot paths report first), ten seconds of each
# fuzz target (model loader, SWF loaders, history ring), the non-test line-count ceiling, the
# benchmark module's own vet and tests, the zero-alloc
# observability, gate-decision, nil-lifecycle, deep-queue scheduler,
# and cached-serving-decision guards, the training-path allocation
# guard, the month-long full-Quartz engine budget, the year-long
# streaming-replay wall-clock and peak-heap budgets, and the
# parallel-speedup smoke.
ci: fmt vet staticcheck loc race-hot race fuzz-smoke bench-module bench-obs bench-gate bench-train bench-lifecycle bench-sched bench-serve bench-engine bench-replay bench-smoke
