#!/usr/bin/env bash
# Tracing smoke: a two-backend fleet behind ibprouter, every process running
# its flight recorder, driven by ibpload with a pinned trace ID and a
# client-side trace dump — with the backend carrying the most live sessions
# SIGKILLed mid-run to prove the trace layer survives failover. Passes only
# if:
#
#   - the load run loses zero sessions (tracing must not break failover),
#   - the backend's /metrics exposes a server-side p99 frame latency,
#   - the /debug/flightrecorder dumps of the router and the surviving
#     backend fuse with the client dump into one Perfetto timeline in which
#     a single frame carries >= 6 named hops across >= 2 processes.
#
# Usage:
#   scripts/trace_smoke.sh [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-trace-artifacts}"
mkdir -p "$dir"

go build -o "$dir/ibpserved" ./cmd/ibpserved
go build -o "$dir/ibprouter" ./cmd/ibprouter
go build -o "$dir/ibpload" ./cmd/ibpload
go build -o "$dir/ibpreport" ./cmd/ibpreport

"$dir/ibpserved" -addr 127.0.0.1:19870 -tag b1 -log warn \
  -flightrecorder 4096 -slo 250ms -metrics 127.0.0.1:19970 &
B1=$!
"$dir/ibpserved" -addr 127.0.0.1:19871 -tag b2 -log warn \
  -flightrecorder 4096 -slo 250ms -metrics 127.0.0.1:19971 &
B2=$!
"$dir/ibprouter" -addr 127.0.0.1:19880 \
  -backends 127.0.0.1:19870,127.0.0.1:19871 \
  -probe 250ms -fails 2 -log warn \
  -flightrecorder 4096 -slo 500ms -metrics 127.0.0.1:19980 &
ROUTER=$!
cleanup() {
  kill "$B1" "$B2" "$ROUTER" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT
sleep 1

# The kill lands on whichever backend carries the most live sessions at the
# 2 s mark, as the router's /sessions/local reports them, so it always cuts
# sessions mid-stream wherever the router placed them; the other backend is
# the survivor whose recorder and metrics are read after the run.
(
  sleep 2
  victim=$(curl -fsS 127.0.0.1:19980/sessions/local | python3 -c '
import collections, json, sys
live = collections.Counter(s.get("backend") for s in json.load(sys.stdin)["sessions"])
live.pop(None, None)
print(live.most_common(1)[0][0] if live else "")')
  if [ "$victim" = 127.0.0.1:19871 ]; then
    echo 127.0.0.1:19970 > "$dir/survivor-metrics"
    echo "trace_smoke: SIGKILL backend b2 (pid $B2)"; kill -KILL "$B2"
  else
    echo 127.0.0.1:19971 > "$dir/survivor-metrics"
    echo "trace_smoke: SIGKILL backend b1 (pid $B1)"; kill -KILL "$B1"
  fi
) &
KILLER=$!

"$dir/ibpload" -addr 127.0.0.1:19880 -router -bench all -n 60000 -frame 128 \
  -conns 8 -traceid smoke -tracedump "$dir/load-flight.json" -json \
  > "$dir/load-report.json"
wait "$KILLER"
survivor=$(cat "$dir/survivor-metrics")

# Dump the live recorders before draining anything.
curl -fsS 127.0.0.1:19980/debug/flightrecorder > "$dir/router-flight.json"
curl -fsS "$survivor/debug/flightrecorder" > "$dir/backend-flight.json"
curl -fsS "$survivor/metrics" > "$dir/backend-metrics.txt"

kill -TERM "$ROUTER"
wait "$ROUTER"

grep -q '^serve_frame_latency_p99_ns ' "$dir/backend-metrics.txt" \
  || { echo "trace_smoke: /metrics lacks serve_frame_latency_p99_ns" >&2; exit 1; }
grep -q '^# TYPE serve_frame_latency histogram$' "$dir/backend-metrics.txt" \
  || { echo "trace_smoke: /metrics lacks the serve_frame_latency histogram" >&2; exit 1; }

"$dir/ibpreport" \
  -flight "$dir/router-flight.json,$dir/backend-flight.json,$dir/load-flight.json" \
  -o "$dir/frames.trace.json"

python3 - "$dir/load-report.json" "$dir/frames.trace.json" <<'EOF'
import json, sys
load = json.load(open(sys.argv[1]))
assert load["failed"] == 0, f'lost sessions: {load["failed"]}'
assert load["failovers"] >= 1, f'kill did not exercise failover: {load["failovers"]}'
assert load.get("hops"), "load report lacks the per-hop latency breakdown"

trace = json.load(open(sys.argv[2]))
frames = {}  # (traceId, seq) -> {hop names}, {pids}
for ev in trace["traceEvents"]:
    if ev.get("ph") != "i":
        continue
    key = (ev["args"]["traceId"], ev["args"]["seq"])
    hops, pids = frames.setdefault(key, (set(), set()))
    hops.add(ev["name"])
    pids.add(ev["pid"])
best = max(frames.items(), key=lambda kv: (len(kv[1][0]), len(kv[1][1])))
(tid, seq), (hops, pids) = best
assert len(hops) >= 6 and len(pids) >= 2, \
    f"best fused frame {tid}#{seq} has hops {sorted(hops)} across {len(pids)} processes"
assert any(k[0].startswith("smoke-") for k in frames), "pinned trace IDs did not propagate"
print(f"trace smoke OK: frame {tid}#{seq} fused with {len(hops)} hops "
      f"({', '.join(sorted(hops))}) across {len(pids)} processes; "
      f"{len(frames)} frames on the timeline")
EOF
