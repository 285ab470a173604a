#!/usr/bin/env bash
# Failover smoke: a real two-backend fleet behind a real ibprouter, driven
# by ibpload -router, with one backend SIGKILLed mid-run. Passes only if
# zero sessions were lost (every summary still bit-identical, "failed": 0)
# and the kill actually exercised the journal-replay path (failovers >= 1).
#
# Usage:
#   scripts/failover_smoke.sh [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-failover-artifacts}"
mkdir -p "$dir"

go build -o "$dir/ibpserved" ./cmd/ibpserved
go build -o "$dir/ibprouter" ./cmd/ibprouter
go build -o "$dir/ibpload" ./cmd/ibpload

"$dir/ibpserved" -addr 127.0.0.1:19770 -tag b1 -log warn &
B1=$!
"$dir/ibpserved" -addr 127.0.0.1:19771 -tag b2 -log warn &
B2=$!
"$dir/ibprouter" -addr 127.0.0.1:19780 -metrics 127.0.0.1:19781 \
  -backends 127.0.0.1:19770,127.0.0.1:19771 \
  -probe 250ms -fails 2 -log warn \
  -summaryjson "$dir/router-summary.json" &
ROUTER=$!
cleanup() {
  kill "$B1" "$B2" "$ROUTER" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT
sleep 1

# Small frames keep each session streaming long enough for the kill to land
# mid-session; the killer waits until the load is in full flight, then kills
# whichever backend carries the most live sessions, as the router's
# /sessions/local reports them, so the kill always cuts sessions mid-stream
# wherever the router placed them.
(
  sleep 2
  victim=$(curl -fsS 127.0.0.1:19781/sessions/local | python3 -c '
import collections, json, sys
live = collections.Counter(s.get("backend") for s in json.load(sys.stdin)["sessions"])
live.pop(None, None)
print(live.most_common(1)[0][0] if live else "")')
  if [ "$victim" = 127.0.0.1:19771 ]; then
    echo "failover_smoke: SIGKILL backend b2 (pid $B2)"; kill -KILL "$B2"
  else
    echo "failover_smoke: SIGKILL backend b1 (pid $B1)"; kill -KILL "$B1"
  fi
) &
KILLER=$!

"$dir/ibpload" -addr 127.0.0.1:19780 -router -bench all -n 60000 -frame 128 \
  -conns 8 -json > "$dir/load-report.json"
wait "$KILLER"

# The router drains cleanly even with a dead backend in the membership.
kill -TERM "$ROUTER"
wait "$ROUTER"

python3 - "$dir/load-report.json" "$dir/router-summary.json" <<'EOF'
import json, sys
load = json.load(open(sys.argv[1]))
router = json.load(open(sys.argv[2]))
assert load["failed"] == 0, f'lost sessions: {load["failed"]}'
assert load["failovers"] >= 1, f'kill did not exercise failover: {load["failovers"]}'
assert all(b.get("backend") for b in load["benchmarks"]), "a summary lacked placement info"
assert router["graceful"], "router drain was not graceful"
metrics = router.get("metrics") or {}
assert metrics.get("router_replay_lost_total", 0) == 0, "a journal replay was lost"
assert metrics.get("router_failovers_total", 0) >= 1, "router counted no failovers"
print(f'failover smoke OK: {load["failovers"]} failovers, '
      f'{load["replayedFrames"]} frames replayed, 0 of {len(load["benchmarks"])} sessions lost')
EOF
