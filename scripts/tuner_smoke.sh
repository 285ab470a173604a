#!/usr/bin/env bash
# Tuner smoke: the adaptation plane end to end with real processes. A
# two-backend tuned fleet (-tuner) behind ibprouter with a pinned
# -tunerpolicy, driven by ibpload across the workload suite, with one
# backend SIGKILLed mid-run. Passes only if
#
#   1. at least one session escalated (its summary reports an ittage
#      predictor and the surviving backend counted tuner_escalations_total),
#   2. zero sessions were lost across the kill,
#   3. a rerun of the identical load lands bit-identical summaries —
#      executed/misses/predictor per benchmark — proving tuner decisions are
#      functions of the record stream, not of failovers or wall clock,
#   4. POST /sessions/{id}/retune against a live tuned session is accepted
#      (the forced-decision admin verb works over real HTTP).
#
# Usage:
#   scripts/tuner_smoke.sh [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-tuner-artifacts}"
mkdir -p "$dir"

go build -o "$dir/ibpserved" ./cmd/ibpserved
go build -o "$dir/ibprouter" ./cmd/ibprouter
go build -o "$dir/ibpload" ./cmd/ibpload

B1_ADDR=127.0.0.1:19970 B1_METRICS=127.0.0.1:19971
B2_ADDR=127.0.0.1:19972 B2_METRICS=127.0.0.1:19973
ROUTER_ADDR=127.0.0.1:19980 ROUTER_METRICS=127.0.0.1:19981

# Escalate on the first 256-branch window with >= 2% misses; swaps=2 leaves
# budget for the forced-retune exercise after the policy's own escalation.
POLICY="warmup=0;interval=256;miss=0.02;low=0.001;hyst=1;swaps=2;coldmax=1;target=ittage:8,512,2"

"$dir/ibpserved" -addr "$B1_ADDR" -metrics "$B1_METRICS" -tuner -tag b1 -log warn \
  -summaryjson "$dir/b1-summary.json" &
B1=$!
"$dir/ibpserved" -addr "$B2_ADDR" -metrics "$B2_METRICS" -tuner -tag b2 -log warn \
  -summaryjson "$dir/b2-summary.json" &
B2=$!
"$dir/ibprouter" -addr "$ROUTER_ADDR" -metrics "$ROUTER_METRICS" \
  -backends "$B1_ADDR,$B2_ADDR" \
  -backendmetrics "$B1_METRICS,$B2_METRICS" \
  -tunerpolicy "$POLICY" \
  -probe 250ms -fails 2 -log warn \
  -summaryjson "$dir/router-summary.json" &
ROUTER=$!
cleanup() {
  kill "$B1" "$B2" "$ROUTER" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT
sleep 1

# Run 1: the suite through the tuned fleet, with one backend SIGKILLed
# mid-run: whichever carries the most live sessions at the 2 s mark, as the
# router's /sessions/local reports them, so the kill always cuts sessions
# wherever the router placed them. The pinned policy escalates every real
# workload (their miss rates are far above 2%), so the kill lands on
# sessions that already hot-swapped and the replacement backend must
# reproduce the swaps from the journal alone. The other backend is the
# survivor the rest of the script reads.
(
  sleep 2
  victim=$(curl -fsS "http://$ROUTER_METRICS/sessions/local" | python3 -c '
import collections, json, sys
live = collections.Counter(s.get("backend") for s in json.load(sys.stdin)["sessions"])
live.pop(None, None)
print(live.most_common(1)[0][0] if live else "")')
  if [ "$victim" = "$B2_ADDR" ]; then
    echo b1 > "$dir/survivor"
    echo "tuner_smoke: SIGKILL backend b2 (pid $B2)"; kill -KILL "$B2"
  else
    echo b2 > "$dir/survivor"
    echo "tuner_smoke: SIGKILL backend b1 (pid $B1)"; kill -KILL "$B1"
  fi
) &
KILLER=$!
"$dir/ibpload" -addr "$ROUTER_ADDR" -router -bench all -n 60000 -frame 128 \
  -conns 8 -json > "$dir/load-report.json"
wait "$KILLER"
survivor=$(cat "$dir/survivor")
if [ "$survivor" = b1 ]; then
  SURV=$B1 SURV_METRICS=$B1_METRICS
else
  SURV=$B2 SURV_METRICS=$B2_METRICS
fi

# Run 2: the identical load against the degraded fleet. Determinism demands
# summaries bit-identical to run 1 — same escalations at the same windows —
# even though run 1 crossed a failover and run 2 did not.
"$dir/ibpload" -addr "$ROUTER_ADDR" -router -bench all -n 60000 -frame 128 \
  -conns 8 -json > "$dir/load-report2.json"

# Forced-retune exercise: park a long-lived session on the survivor, find it
# in /sessions, and POST the admin verb at it.
"$dir/ibpload" -addr "$ROUTER_ADDR" -router -bench gcc -n 400000 -frame 64 \
  -conns 1 -json > "$dir/load-retune.json" &
LOAD=$!
retuned=""
for _ in $(seq 100); do
  id=$(curl -fsS "http://$SURV_METRICS/sessions" 2>/dev/null | python3 -c '
import json, sys
for s in json.load(sys.stdin)["sessions"]:
    if s["kind"] == "serve" and s["state"] == "active":
        print(s["id"]); break
' || true)
  if [ -n "$id" ]; then
    ok=$(curl -fsS -X POST "http://$SURV_METRICS/sessions/$id/retune" | python3 -c \
      'import json,sys; print(json.load(sys.stdin)["ok"])' || echo False)
    if [ "$ok" = "True" ]; then retuned="yes"; break; fi
  fi
  sleep 0.1
done
wait "$LOAD"
[ -n "$retuned" ] || { echo "tuner_smoke: no live session accepted a forced retune" >&2; exit 1; }

# Drain the fleet so the backend summaries (with tuner_* metrics) flush.
kill -TERM "$ROUTER"; wait "$ROUTER"
kill -TERM "$SURV"
for _ in $(seq 100); do kill -0 "$SURV" 2>/dev/null || break; sleep 0.1; done

python3 - "$dir" "$survivor" <<'EOF'
import json, sys
dir, survivor = sys.argv[1], sys.argv[2]
run1 = json.load(open(f"{dir}/load-report.json"))
run2 = json.load(open(f"{dir}/load-report2.json"))
router = json.load(open(f"{dir}/router-summary.json"))
surv = json.load(open(f"{dir}/{survivor}-summary.json"))

assert run1["failed"] == 0, f'run 1 lost sessions: {run1["failed"]}'
assert run2["failed"] == 0, f'run 2 lost sessions: {run2["failed"]}'
assert run1["failovers"] >= 1, f'kill did not exercise failover: {run1["failovers"]}'

esc = [b["benchmark"] for b in run1["benchmarks"] if b["predictor"].startswith("ittage")]
assert esc, "no session finished on the escalation target"

by1 = {b["benchmark"]: b for b in run1["benchmarks"]}
by2 = {b["benchmark"]: b for b in run2["benchmarks"]}
assert by1.keys() == by2.keys(), "benchmark sets differ between runs"
for name, a in by1.items():
    b = by2[name]
    for k in ("predictor", "executed", "misses", "missRate"):
        assert a[k] == b[k], f"{name}: {k} diverged across runs: {a[k]} vs {b[k]}"

metrics = surv.get("metrics") or {}
assert metrics.get("tuner_escalations_total", 0) >= 1, "survivor counted no escalations"
assert metrics.get("tuner_swap_failed_total", 0) == 0, "a swap failed"
rmetrics = router.get("metrics") or {}
assert rmetrics.get("router_replay_lost_total", 0) == 0, "a journal replay was lost"

print(f"tuner smoke OK: {len(esc)}/{len(by1)} sessions escalated to ittage, "
      f'{run1["failovers"]} failovers, summaries bit-identical across runs, '
      f'{metrics.get("tuner_swaps_total", 0)} swaps on the survivor')
EOF
