#!/usr/bin/env bash
# bench-gate.sh — the performance-regression gate (CI's perf-gate job;
# see OBSERVABILITY.md). Times the benchmark's single-run workloads on a
# base revision and on this checkout, then fails when
# `bench/run.sh -compare` finds a metric worse than its BENCHMARK.json
# bound, or when a simulation on this checkout fails its checks.
#
# BASE is checked out into a temporary worktree whose bench/ and
# BENCHMARK.json are replaced by this checkout's, so both sides run the
# same benchmark and only the simulator differs. Each workload runs once
# per side at seed 2 and the benchmark's 20 s; the side that goes first
# alternates from one workload to the next. sweep-quick is left out: its
# peak_rss_mb is one value per run, so one run per side reads its noise
# as a change.
#
# Usage:  scripts/bench-gate.sh BASE
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -eq 1 ] || { echo "usage: scripts/bench-gate.sh BASE" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'git worktree remove --force "${tmp}/base" 2>/dev/null || true; rm -rf "${tmp}"' EXIT
git worktree add --detach "${tmp}/base" "$1"
rm -rf "${tmp}/base/bench"
cp -R bench BENCHMARK.json "${tmp}/base/"

# side NAME DIR WORKLOAD runs WORKLOAD in the tree at DIR, appends the
# output to NAME.txt and prints the run's summary line to stderr.
side() {
  (cd "$2" && bash bench/run.sh -workload "$3" -seed 2) |
    tee -a "${tmp}/$1.txt" | sed -n "s/^# /$1: /p" >&2
}
side base "${tmp}/base" xsbench-tempo
side head . xsbench-tempo
side head . small-fastpath
side base "${tmp}/base" small-fastpath
side base "${tmp}/base" mc4-tempo
side head . mc4-tempo

bash bench/run.sh -compare "${tmp}/base.txt" "${tmp}/head.txt"
if grep -q '"correct":false' "${tmp}/head.txt"; then
  echo "bench-gate: a simulation failed its checks on this checkout" >&2
  exit 1
fi
