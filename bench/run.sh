#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build
# writes (binary, Go build cache, temporary files) stays inside the
# checkout; .gitignore names .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
(cd bench && go build -o "$root/.bench_build/rushbench" .)
exec "$root/.bench_build/rushbench" "$@"
