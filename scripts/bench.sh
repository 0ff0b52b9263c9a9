#!/usr/bin/env bash
# bench.sh — measure the simulator's per-record hot path and emit
# BENCH_hotpath.json.
#
# Runs the throughput microbenchmarks (one op = one trace record):
#   BenchmarkHotPathTempo          xsbench + TEMPO, the paper's hot path
#   BenchmarkHotPathMultiTempo     4 xsbench cores, shared LLC, TEMPO on
#   BenchmarkSimulatorThroughput   graph500 baseline, no prefetching
# with -benchmem, parses records/s, ns/record, B/record and
# allocs/record, and writes them next to the pinned pre-rewrite
# baseline (captured on the goroutine-coroutine scheduler at commit
# de0e01d) so the speedup is tracked in-repo. The multi-core benchmark
# has no pre-rewrite baseline (it was added with the batching
# coordinator); its "after" numbers still feed the CI diff gate.
#
# Besides regenerating BENCH_hotpath.json (the "latest" snapshot that
# `tempo-report diff` gates against), each run appends one timestamped
# record to BENCH_history.jsonl, the cumulative measurement log — plot
# it or diff any two eras with
#   tempo-report diff <(sed -n 1p BENCH_history.jsonl) <(sed -n '$p' BENCH_history.jsonl)
#
# History appends are deduplicated by source revision: re-running at an
# unchanged commit drops every prior record of that revision before
# appending the fresh one, so one line of BENCH_history.jsonl is one
# measured revision wherever the earlier records sit (a dirty tree is
# its own "-dirty" revision and always re-measures). This also repairs
# histories seeded before deduplication existed, which could hold runs
# of identical-revision lines.
#
# Usage:  scripts/bench.sh [--dry-run] [records-per-run]   (default 300000)
#   --dry-run      skip the Go benchmarks and emit canned numbers — for
#                  exercising the snapshot/history plumbing in tests
#   BENCH_OUT      override the snapshot path (default BENCH_hotpath.json)
#   BENCH_HISTORY  override the history path (default BENCH_history.jsonl)
set -euo pipefail
cd "$(dirname "$0")/.."

DRY_RUN=0
if [ "${1:-}" = "--dry-run" ]; then
  DRY_RUN=1
  shift
fi
RECORDS="${1:-300000}"
OUT="${BENCH_OUT:-BENCH_hotpath.json}"

# run_bench NAME — prints "records_s ns_rec bytes_rec allocs_rec".
# The result line is matched with or without the -GOMAXPROCS suffix go
# test appends on multi-core hosts.
run_bench() {
  go test -run=NONE -bench="^$1\$" -benchtime="${RECORDS}x" -benchmem -count=1 . |
    awk -v name="$1" '
      $1 == name || $1 ~ "^" name "-[0-9]+$" {
        for (i = 2; i < NF; i++) {
          if ($(i+1) == "records/s") rs = $i
          if ($(i+1) == "ns/op")     ns = $i
          if ($(i+1) == "B/op")      bp = $i
          if ($(i+1) == "allocs/op") ap = $i
        }
        print rs, ns, bp, ap
      }'
}

if [ "${DRY_RUN}" = 1 ]; then
  echo "== dry run: emitting canned hot-path numbers" >&2
  T_RS=500000; T_NS=2000; T_BP=100; T_AP=1
  M_RS=400000; M_NS=2500; M_BP=120; M_AP=1
  G_RS=800000; G_NS=1250; G_BP=70; G_AP=0
else
  echo "== measuring hot path (${RECORDS} records per benchmark)" >&2
  read -r T_RS T_NS T_BP T_AP < <(run_bench BenchmarkHotPathTempo)
  read -r M_RS M_NS M_BP M_AP < <(run_bench BenchmarkHotPathMultiTempo)
  read -r G_RS G_NS G_BP G_AP < <(run_bench BenchmarkSimulatorThroughput)
fi
if [ -z "${T_RS}" ] || [ -z "${M_RS}" ] || [ -z "${G_RS}" ]; then
  echo "bench.sh: failed to parse benchmark output" >&2
  exit 1
fi

# Pre-rewrite baseline, measured at the same record counts on the
# channel-coroutine scheduler this PR replaced.
B_T_RS=441601; B_T_NS=2264; B_T_BP=115
B_G_RS=790535; B_G_NS=1265; B_G_BP=73

# Host metadata. Timings are only comparable between measurements taken
# on the same kind of host, so every snapshot and history record
# carries the machine it was measured on. GOMAXPROCS defaults to the
# CPU count when the variable is unset, mirroring the Go runtime.
NUM_CPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
HOST_GOMAXPROCS="${GOMAXPROCS:-${NUM_CPU}}"
GO_VERSION="$(go env GOVERSION 2>/dev/null || echo unknown)"

speedup() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }

cat > "${OUT}" <<EOF
{
  "benchmark": "per-record hot path (go test -bench, one op = one trace record)",
  "records_per_run": ${RECORDS},
  "baseline_commit": "de0e01d (goroutine-coroutine scheduler)",
  "host": { "num_cpu": ${NUM_CPU}, "gomaxprocs": ${HOST_GOMAXPROCS}, "go_version": "${GO_VERSION}" },
  "xsbench_tempo": {
    "before": { "records_per_sec": ${B_T_RS}, "ns_per_record": ${B_T_NS}, "bytes_per_record": ${B_T_BP} },
    "after":  { "records_per_sec": ${T_RS}, "ns_per_record": ${T_NS}, "bytes_per_record": ${T_BP}, "allocs_per_record": ${T_AP} },
    "speedup": $(speedup "${T_RS}" "${B_T_RS}")
  },
  "multicore_tempo": {
    "after":  { "records_per_sec": ${M_RS}, "ns_per_record": ${M_NS}, "bytes_per_record": ${M_BP}, "allocs_per_record": ${M_AP} }
  },
  "graph500_baseline": {
    "before": { "records_per_sec": ${B_G_RS}, "ns_per_record": ${B_G_NS}, "bytes_per_record": ${B_G_BP} },
    "after":  { "records_per_sec": ${G_RS}, "ns_per_record": ${G_NS}, "bytes_per_record": ${G_BP}, "allocs_per_record": ${G_AP} },
    "speedup": $(speedup "${G_RS}" "${B_G_RS}")
  }
}
EOF
echo "wrote ${OUT}" >&2
cat "${OUT}"

# Append this measurement to the cumulative history, one JSON object
# per line, stamped with wall-clock time and the source revision. Any
# earlier record of the same revision is dropped first (newest
# measurement wins) so an unchanged commit contributes exactly one
# history record however often the script runs — including histories
# seeded before deduplication existed, whose duplicate rows are
# collapsed the next time their revision is re-measured.
HISTORY="${BENCH_HISTORY:-BENCH_history.jsonl}"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
DIRTY=""
if ! git diff --quiet 2>/dev/null || ! git diff --cached --quiet 2>/dev/null; then
  DIRTY="-dirty"
fi
REV="${COMMIT}${DIRTY}"
ACTION="appended"
if [ -s "${HISTORY}" ]; then
  # The outer "commit" key has no space before its value; the inner
  # snapshot's "baseline_commit": cannot match this fixed string.
  DUPES="$(grep -cF "\"commit\":\"${REV}\"" "${HISTORY}" || true)"
  if [ "${DUPES}" -gt 0 ]; then
    grep -vF "\"commit\":\"${REV}\"" "${HISTORY}" > "${HISTORY}.tmp" || true
    mv "${HISTORY}.tmp" "${HISTORY}"
    ACTION="replaced ${DUPES} prior record(s) in"
  fi
fi
# Fold the pretty-printed snapshot onto one line (strip indentation
# and newlines only — spaces inside string values stay intact).
printf '{"timestamp":"%s","commit":"%s","hotpath":%s}\n' \
  "${STAMP}" "${REV}" \
  "$(sed 's/^[[:space:]]*//' "${OUT}" | tr -d '\n')" >> "${HISTORY}"
echo "${ACTION} ${HISTORY} (${STAMP}, ${REV})" >&2
