#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke test of the tempo-serve job service
# (CI's "Serve smoke" step; see SERVICE.md).
#
# Builds tempo-serve, starts it on an ephemeral port with a throwaway
# cache directory, and drives one job through the HTTP API:
#   1. POST /jobs with a tiny generated config (scripts/mkcfg)
#      -> expect 201 Created and a job id
#   2. poll GET /jobs/{id} until the job reaches a terminal state
#      -> expect "completed" and a result payload
#   3. POST the identical config again
#      -> expect 200 with "cacheHit": true and no new execution
#   4. POST it under 20 new tenant names, and once more with
#      "Mech": "tempo" (the default machine's other spelling)
#      -> expect a cache hit each time; then /metrics must carry
#         exactly two tempo_svc_tenant_* series per tenant /queue lists,
#         and its tempo_svc_jobs_* values must satisfy submitted =
#         queued + running + completed + failed + canceled
#   5. run a mech01 sweep (tempo, victima) through the server with
#      tempo-bench -submit
#      -> expect the server's runs.jsonl to carry "base" on the four
#         mech/<name>/<workload> lines, the pairs the sweep declared
# Any deviation (timeout, failed job, cache miss on re-submit, a
# tenant series /queue does not list, a broken job count, a variant
# line without its baseline) fails the script; the server is torn down
# on exit either way.
#
# Usage:  scripts/serve-smoke.sh [records]   (default 2000)
set -euo pipefail
cd "$(dirname "$0")/.."

RECORDS="${1:-2000}"
TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "${SERVER_PID}" ]; then
    kill "${SERVER_PID}" 2>/dev/null || true
    wait "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${TMP}"
}
trap cleanup EXIT

echo "== building tempo-serve" >&2
go build -o "${TMP}/tempo-serve" ./cmd/tempo-serve

echo "== starting tempo-serve on an ephemeral port" >&2
"${TMP}/tempo-serve" -http 127.0.0.1:0 -cache-dir "${TMP}/cache" \
  2> "${TMP}/serve.log" &
SERVER_PID=$!

BASE=""
for _ in $(seq 1 100); do
  BASE="$(sed -n 's#^tempo-serve listening on \(http://[^ ]*\)$#\1#p' "${TMP}/serve.log" | head -n 1)"
  [ -n "${BASE}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "serve-smoke: server died during startup:" >&2
    cat "${TMP}/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "${BASE}" ]; then
  echo "serve-smoke: server never announced its address" >&2
  cat "${TMP}/serve.log" >&2
  exit 1
fi
echo "== server at ${BASE}" >&2

echo "== submitting a tiny xsbench config (${RECORDS} records)" >&2
go run ./scripts/mkcfg -workload xsbench -records "${RECORDS}" > "${TMP}/cfg.json"
python3 -c 'import json,sys; json.dump({"config": json.load(open(sys.argv[1]))}, open(sys.argv[2], "w"))' \
  "${TMP}/cfg.json" "${TMP}/req.json"

STATUS="$(curl -sS -o "${TMP}/submit1.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' -d @"${TMP}/req.json" "${BASE}/jobs")"
if [ "${STATUS}" != 201 ]; then
  echo "serve-smoke: first submit returned HTTP ${STATUS}, want 201:" >&2
  cat "${TMP}/submit1.json" >&2
  exit 1
fi
JOB_ID="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["job"]["id"])' "${TMP}/submit1.json")"
echo "== job ${JOB_ID} accepted, polling to completion" >&2

STATE=""
for _ in $(seq 1 600); do
  curl -sS -o "${TMP}/job.json" "${BASE}/jobs/${JOB_ID}"
  STATE="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["job"]["state"])' "${TMP}/job.json")"
  case "${STATE}" in
    completed) break ;;
    failed|canceled)
      echo "serve-smoke: job reached ${STATE}:" >&2
      cat "${TMP}/job.json" >&2
      exit 1 ;;
  esac
  sleep 0.2
done
if [ "${STATE}" != completed ]; then
  echo "serve-smoke: job still ${STATE} after polling window" >&2
  exit 1
fi
python3 -c 'import json,sys
st = json.load(open(sys.argv[1]))
assert st.get("result"), "completed job carries no result"
' "${TMP}/job.json"
echo "== job completed with a result payload" >&2

echo "== re-submitting the identical config" >&2
STATUS="$(curl -sS -o "${TMP}/submit2.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' -d @"${TMP}/req.json" "${BASE}/jobs")"
if [ "${STATUS}" != 200 ]; then
  echo "serve-smoke: re-submit returned HTTP ${STATUS}, want 200:" >&2
  cat "${TMP}/submit2.json" >&2
  exit 1
fi
python3 -c 'import json,sys
resp = json.load(open(sys.argv[1]))
assert resp.get("cacheHit") is True, "re-submit was not served from cache: %r" % resp
assert resp.get("created") is False, "re-submit created a new job: %r" % resp
' "${TMP}/submit2.json"

echo "== re-submitting under 20 new tenant names and as \"Mech\": \"tempo\"" >&2
resubmit() { # $1: request file
  STATUS="$(curl -sS -o "${TMP}/resubmit.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' -d @"$1" "${BASE}/jobs")"
  if [ "${STATUS}" != 200 ]; then
    echo "serve-smoke: re-submit of $1 returned HTTP ${STATUS}, want 200:" >&2
    cat "${TMP}/resubmit.json" >&2
    exit 1
  fi
  python3 -c 'import json,sys
resp = json.load(open(sys.argv[1]))
assert resp.get("cacheHit") is True, "%s was not a cache hit: %r" % (sys.argv[2], resp)
' "${TMP}/resubmit.json" "$1"
}
for i in $(seq 1 20); do
  python3 -c 'import json,sys; r = json.load(open(sys.argv[1])); r["tenant"] = sys.argv[3]; json.dump(r, open(sys.argv[2], "w"))' \
    "${TMP}/req.json" "${TMP}/req-tenant.json" "smoke-tenant-${i}"
  resubmit "${TMP}/req-tenant.json"
done
python3 -c 'import json,sys; r = json.load(open(sys.argv[1])); r["config"]["Mech"] = "tempo"; json.dump(r, open(sys.argv[2], "w"))' \
  "${TMP}/req.json" "${TMP}/req-mech.json"
resubmit "${TMP}/req-mech.json"

echo "== checking /metrics against /queue" >&2
curl -sS -o "${TMP}/metrics.txt" "${BASE}/metrics"
curl -sS -o "${TMP}/queue.json" "${BASE}/queue"
python3 -c 'import json,re,sys
series = {}
for line in open(sys.argv[1]):
    if line.startswith("tempo_"):
        name, value = line.split()
        series[name] = float(value)
tenants = json.load(open(sys.argv[2]))["tenants"]
clean = lambda s: re.sub(r"[^A-Za-z0-9_]", "_", s)
want = {"tempo_svc_tenant_%s_%s" % (clean(t), kind) for t in tenants for kind in ("admitted", "rejected")}
got = {n for n in series if n.startswith("tempo_svc_tenant_")}
assert got == want, "tenant series %s, but /queue lists tenants %s" % (sorted(got), sorted(tenants))
jobs = {k: series["tempo_svc_jobs_" + k] for k in ("submitted", "queued", "running", "completed", "failed", "canceled")}
parts = sum(v for k, v in jobs.items() if k != "submitted")
assert jobs["submitted"] == parts, "job counts do not conserve: %r" % jobs
' "${TMP}/metrics.txt" "${TMP}/queue.json"

echo "== running a mech01 sweep through the server" >&2
go run ./cmd/tempo-bench -scale quick -figure mech01 -mech tempo,victima \
  -submit "${BASE}" > "${TMP}/mech01.txt"
python3 -c 'import json,sys
runs = [json.loads(l) for l in open(sys.argv[1])]
mech = [r for r in runs if r["key"].startswith("mech/")]
assert len(mech) == 4, "want 4 mech/ lines in the server runs.jsonl, got %r" % [r["key"] for r in mech]
bare = [r["key"] for r in mech if not r.get("base")]
assert not bare, "mech/ lines without their baseline: %r" % bare
' "${TMP}/cache/runs.jsonl"

echo "serve-smoke: OK (job ${JOB_ID} ran once, every re-submit was a cache hit, /metrics matched /queue, the sweep recorded its pairs)" >&2
