GO ?= go

.PHONY: build test race fuzz-smoke loc bench-module vet staticcheck fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke runs each of the twelve fuzz targets for ten seconds: no bytes
# LoadModel accepts may make a prediction panic or hang; no bytes may
# panic the SWF scanner, make the two SWF loaders disagree, or yield a
# job the replay driver cannot run; no sequence of appends, same-instant
# mutations, prunes and window queries may make simnet's history ring
# answer differently from the linear slice it is checked against; no
# -topo value may parse to a topology that fails Validate, exceeds the
# node limit or does not survive String; no sequence of load changes,
# prunes, fault installs, counter masks and window queries, job-scoped
# and machine-wide, may make the sampler's row store answer differently
# from a from-scratch recompute under the same mask; no client bytes may panic rush-serve's connection
# loop or leave a complete frame without exactly one response; no bytes
# may make rush-serve's frame codec accept, reject, decode or encode
# differently from encoding/json; and no problem decoded from bytes may
# make AdaBoost's stump scan choose a different stump or error than its
# pre-rewrite reference; and no sequence of schedules, re-timings,
# cancels, batches, before-read callbacks and steps may make the event
# engine fire differently from its container/heap model; and no sequence
# of release adds, promotes, removals and reservation queries may make the
# scheduler's availability timeline hold an entry its job did not add or
# answer differently from the reference scanner's snapshot walk; and no
# sequence of gate decisions may make the pipeline cut at the feature
# boundary (check, then eval) decide or move its breaker differently from
# the single shot; and no SWF bytes may make a replay whose stream reuses
# finished job records differ from one over the same jobs materialized.
# Each target prints its last execs: line, so a stalled fuzzer shows as a
# low count; a failing one prints its whole output. Minimizing an input
# stops after 100 executions: Go's minimizer tries removing every run of
# an input's bytes and otherwise holds every worker for up to a minute
# per new input.
FUZZ_TARGETS = mlkit:FuzzLoadModel workload:FuzzSWFStream simnet:FuzzHistoryOps \
	cluster:FuzzTopoParse telemetry:FuzzRowStoreOps serve:FuzzServeFrames \
	serve:FuzzFrameCodec mlkit:FuzzBestStump sim:FuzzEngineOps \
	sched:FuzzTimelineOps sched:FuzzPipelineOps experiments:FuzzReplayRecycling
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		out=$$($(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 10s -fuzzminimizetime 100x ./internal/$${t%%:*}/ 2>&1) || { echo "$$out"; exit 1; }; \
		echo "$$t: $$(echo "$$out" | grep 'execs:' | tail -n 1)"; \
	done

# loc prints non-test Go lines outside bench/ per package and fails when
# the total passes LOC_CEILING, the count at the change that last cut
# code, so a change that grows the tree has to say so by raising it.
LOC_CEILING = 15395
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

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools' staticcheck when the binary is on
# PATH and says it skipped otherwise (vet runs as its own target), so CI
# gets the stronger analysis where available without making it an
# install-time dependency. The second invocation enforces the godoc
# contract on the scheduler, the engine core, and the workload loaders
# (ST1000 package comment, ST1020 exported-symbol doc comments): every
# exported scheduler, simulation-engine, contention-state, and
# trace-ingest symbol documents its determinism and allocation
# behaviour, and these checks keep the comments from silently
# disappearing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
		staticcheck -checks ST1000,ST1020 ./internal/sched/ ./internal/sim/ ./internal/simnet/ ./internal/workload/; \
	else \
		echo "staticcheck: binary not found, skipped"; \
	fi

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci is the full gate, each check once: formatting, vet, staticcheck
# when installed (including the sched/sim/simnet/workload godoc checks),
# the non-test line-count ceiling, the test suite under the race
# detector, ten seconds of each fuzz target (model loader, SWF loaders,
# history ring, -topo parser, row store, wire frames, frame codec, stump
# scan, event engine, scheduler timeline, gate pipeline, replay record
# reuse), and
# the benchmark module's own vet and tests. The allocation and heap
# guards are plain tests inside the suite; wall time and per-layer costs
# are measured by `bash bench/run.sh`, not budgeted here.
ci: fmt vet staticcheck loc race fuzz-smoke bench-module
