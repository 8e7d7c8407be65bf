#!/usr/bin/env bash
# Builds the benchmark and eblowd from this checkout and runs one workload:
#   bash perfbench/run.sh --workload plan-1d --seed 1 --seconds 40 --trace 0
# Run it from the checkout root. Everything it builds or writes stays under
# .bench_build/ in the checkout (the Go build cache included).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) 1>&2
go build -o "$build/eblowd" ./cmd/eblowd 1>&2

exec "$build/perfbench" -root "$root" -eblowd "$build/eblowd" "$@"
