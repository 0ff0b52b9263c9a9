#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh -workload xsbench-tempo -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the binary, the Go build cache, and the
# traced run's CPU profile while it is folded.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOENV=off
export GOWORK=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

(cd bench && go build -o "${out}/bench" .)
exec "${out}/bench" "$@"
