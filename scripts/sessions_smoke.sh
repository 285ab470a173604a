#!/usr/bin/env bash
# Sessions smoke: the live introspection plane end to end with real
# processes. A two-backend fleet behind ibprouter (with -backendmetrics so
# the router fans in backend /sessions), driven by a long-lived ibpload run;
# while the load is in flight the script
#
#   1. streams /sessions/stream?ticks=3 off the router and asserts every
#      live session produced at least one delta line with movement,
#   2. runs ibptop -once -json against the router and asserts each session
#      is attributed to a real backend,
#   3. cross-checks that attribution against the router's own proxy view
#      (/sessions/local) via the RouterSession/upstream correlation key,
#   4. pulls /sessions/{id} for one session and checks the detail shape.
#
# Usage:
#   scripts/sessions_smoke.sh [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-sessions-artifacts}"
mkdir -p "$dir"

go build -o "$dir/ibpserved" ./cmd/ibpserved
go build -o "$dir/ibprouter" ./cmd/ibprouter
go build -o "$dir/ibpload" ./cmd/ibpload
go build -o "$dir/ibptop" ./cmd/ibptop

B1_ADDR=127.0.0.1:19870 B1_METRICS=127.0.0.1:19871
B2_ADDR=127.0.0.1:19872 B2_METRICS=127.0.0.1:19873
ROUTER_ADDR=127.0.0.1:19880 ROUTER_METRICS=127.0.0.1:19881

"$dir/ibpserved" -addr "$B1_ADDR" -metrics "$B1_METRICS" -tag b1 -log warn &
B1=$!
"$dir/ibpserved" -addr "$B2_ADDR" -metrics "$B2_METRICS" -tag b2 -log warn &
B2=$!
"$dir/ibprouter" -addr "$ROUTER_ADDR" -metrics "$ROUTER_METRICS" \
  -backends "$B1_ADDR,$B2_ADDR" \
  -backendmetrics "$B1_METRICS,$B2_METRICS" \
  -probe 250ms -log warn &
ROUTER=$!
cleanup() {
  kill "$B1" "$B2" "$ROUTER" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT
sleep 1

# Long-lived sessions: small frames and a big record count keep every
# connection streaming while the plane is sampled.
"$dir/ibpload" -addr "$ROUTER_ADDR" -router -bench all -n 200000 -frame 64 \
  -conns 6 -tenant smoke -json > "$dir/load-report.json" &
LOAD=$!

# Wait until the router actually tracks live sessions.
for _ in $(seq 50); do
  n=$(curl -fsS "http://$ROUTER_METRICS/sessions/local" | python3 -c \
    'import json,sys; print(len(json.load(sys.stdin)["sessions"]))' || echo 0)
  [ "${n:-0}" -ge 1 ] && break
  sleep 0.2
done

# 1. Three stream ticks off the cluster fan-in view.
curl -fsS "http://$ROUTER_METRICS/sessions/stream?ticks=3&interval=500ms&sort=rps" \
  > "$dir/stream.ndjson"

# 2. One ibptop snapshot (machine-readable).
"$dir/ibptop" -addr "$ROUTER_METRICS" -once -json > "$dir/ibptop.json"

# 3. The router's own proxy view for the cross-check.
curl -fsS "http://$ROUTER_METRICS/sessions/local" > "$dir/router-local.json"

# 4. One session detail off a backend (tables + window live here). A listed
# session can end before its detail is fetched: its 404 is accepted only
# when a fresh listing no longer carries it, and then the next live session
# is tried. Any other failure fails the smoke. The detail check is skipped
# only when b1 lists no live session.
b1_sessions() {
  curl -fsS "http://$B1_METRICS/sessions" | python3 -c \
    'import json,sys; print(*[s["id"] for s in json.load(sys.stdin)["sessions"]])'
}
rm -f "$dir/session-detail.json" "$dir/no-b1-session"
for _ in $(seq 20); do
  ids=$(b1_sessions)
  if [ -z "$ids" ]; then
    : > "$dir/no-b1-session"
    break
  fi
  for id in $ids; do
    code=$(curl -sS -o "$dir/detail.tmp" -w '%{http_code}' "http://$B1_METRICS/sessions/$id")
    if [ "$code" = 200 ]; then
      mv "$dir/detail.tmp" "$dir/session-detail.json"
      break 2
    fi
    now=$(b1_sessions)
    if [ "$code" != 404 ] || [[ " $now " == *" $id "* ]]; then
      echo "sessions smoke: /sessions/$id answered HTTP $code" >&2
      exit 1
    fi
  done
done
rm -f "$dir/detail.tmp"

wait "$LOAD"

python3 - "$dir" "$B1_ADDR" "$B2_ADDR" <<'EOF'
import json, os, sys
d, b1, b2 = sys.argv[1], sys.argv[2], sys.argv[3]

# Stream: >= 3 ticks, and every session that appeared had a delta line with
# movement in at least one tick (the load never idles mid-run).
ticks, lines = 0, []
for raw in open(f"{d}/stream.ndjson"):
    raw = raw.strip()
    if raw:
        lines.append(json.loads(raw))
ticks = sum(1 for l in lines if l["type"] == "tick")
assert ticks == 3, f"stream produced {ticks} ticks, want 3"
moved, seen = set(), set()
for l in lines:
    if l["type"] != "session":
        continue
    sid = (l["session"].get("backend", ""), l["session"]["id"])
    seen.add(sid)
    if l["delta"]["records"] > 0:
        moved.add(sid)
assert seen, "stream carried no session lines"
assert moved == seen, f"sessions without any stream delta: {seen - moved}"
stats = [l for l in lines if l["type"] == "stats"]
assert stats and any(s["delta"] for s in stats), "no telemetry deltas fused into the stream"

# ibptop -once -json: every serve-side session attributed to a real backend.
top = json.load(open(f"{d}/ibptop.json"))
assert top["tick"]["sessions"] >= 1, "ibptop saw no sessions"
backends = {b["addr"]: b for b in top["tick"]["backends"]}
assert set(backends) == {b1, b2}, f"ibptop backends {set(backends)}"
serve_rows = [s["session"] for s in top["sessions"] if s["session"]["kind"] == "serve"]
assert serve_rows, "ibptop has no merged serve sessions"
for s in serve_rows:
    assert s["backend"] in (b1, b2), f'session {s["id"]} attributed to {s["backend"]!r}'
    assert s["tenant"] == "smoke", f'session {s["id"]} lost its tenant tag'

# Cross-check: each merged row's upstream id exists in the router's own
# proxy registry, and the proxy agrees on the backend placement.
local = json.load(open(f"{d}/router-local.json"))
proxies = {p["id"]: p for p in local["sessions"]}
checked = 0
for s in serve_rows:
    up = s.get("upstream", 0)
    if up in proxies:
        p = proxies[up]
        assert p.get("backend") in ("", s["backend"]), \
            f'proxy {up} says {p.get("backend")!r}, fan-in says {s["backend"]!r}'
        checked += 1
assert checked >= 1, "no merged session could be cross-checked against the proxy view"

# Session detail: window stats and identity present. It is missing only
# when backend b1 held no session when sampled.
if os.path.exists(f"{d}/session-detail.json"):
    det = json.load(open(f"{d}/session-detail.json"))
    assert det["win"]["seconds"] > 0 and det["state"], "detail missing window stats"
else:
    assert os.path.exists(f"{d}/no-b1-session"), "no session detail fetched off b1"

load = json.load(open(f"{d}/load-report.json"))
assert load["failed"] == 0, f'load lost sessions: {load["failed"]}'
print(f"sessions smoke OK: {ticks} ticks, {len(seen)} streamed sessions, "
      f"{len(serve_rows)} ibptop rows attributed, {checked} cross-checked")
EOF
