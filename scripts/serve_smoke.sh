#!/bin/sh
# Serve-mode smoke: boot rawrouter -serve as a real process, exercise the
# HTTP control plane end to end, ride a degrade arc into an SLO
# violation, drain through /drain, and prove the drain checkpoint resumes
# deterministically (two restores of the same blob must produce
# byte-identical continuations).
#
# The fault is a persistent crossbar freeze (port 1's tile 6) so the
# degraded state latches: /readyz flips 503 and stays there, the
# throughput gate (-slomingbps 15 sits between the healthy ~16.9 Gbps
# and the 3-port degraded rate) trips, and the drain happens with the
# port still dark — the forced-drain + restore path is exercised too.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve_smoke: FAIL: $1" >&2
    [ -f "$TMP/daemon.log" ] && sed 's/^/serve_smoke:   daemon: /' "$TMP/daemon.log" >&2
    exit 1
}

fetch() { # fetch PATH OUT -> http code
    if command -v curl >/dev/null 2>&1; then
        curl -s -o "$2" -w '%{http_code}' "http://$ADDR$1" || echo 000
    else
        wget -q -S -O "$2" "http://$ADDR$1" 2>"$TMP/wget.hdr" \
            && awk '/^  HTTP/{c=$2} END{print c}' "$TMP/wget.hdr" || echo 000
    fi
}

post() { # post PATH OUT -> http code
    if command -v curl >/dev/null 2>&1; then
        curl -s -X POST -o "$2" -w '%{http_code}' "http://$ADDR$1" || echo 000
    else
        wget -q -S -O "$2" --post-data= "http://$ADDR$1" 2>"$TMP/wget.hdr" \
            && awk '/^  HTTP/{c=$2} END{print c}' "$TMP/wget.hdr" || echo 000
    fi
}

echo "== serve smoke: build =="
go build -o "$TMP/rawrouter" ./cmd/rawrouter

FAULTS='freeze@30000+100000000:t6'
SERVE_FLAGS="-serve -listen 127.0.0.1:0 -watchdog -faults $FAULTS -slomingbps 15 -drainbudget 32"

echo "== serve smoke: boot daemon =="
"$TMP/rawrouter" $SERVE_FLAGS -checkpoint "$TMP/ckpt.srv" >"$TMP/daemon.log" 2>&1 &
DAEMON_PID=$!

# The daemon prints the resolved listen address on boot.
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR="$(sed -n 's#^serve: control plane listening on http://##p' "$TMP/daemon.log" | head -n 1)"
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before publishing its address"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] && echo "   daemon at $ADDR" || fail "daemon never published its listen address"

echo "== serve smoke: liveness + metrics =="
i=0
while [ $i -lt 50 ]; do
    code="$(fetch /healthz "$TMP/healthz.json")"
    [ "$code" = 200 ] && break
    sleep 0.1
    i=$((i + 1))
done
[ "$code" = 200 ] || fail "/healthz never returned 200 (last $code)"
grep -q '"state": "serving"' "$TMP/healthz.json" || fail "/healthz body lacks serving state"

code="$(fetch /metrics "$TMP/metrics.txt")"
[ "$code" = 200 ] || fail "/metrics returned $code"
grep -q '^raw_router_serve_state ' "$TMP/metrics.txt" || fail "/metrics lacks the serve-plane series"
grep -q '^raw_router_quanta_total ' "$TMP/metrics.txt" || fail "/metrics lacks the router telemetry series"
grep -q '^raw_router_reprobes_total{' "$TMP/metrics.txt" || fail "/metrics lacks the line-reprobe series"
grep -q '^raw_router_words_in_total{' "$TMP/metrics.txt" || fail "/metrics lacks the input-word series"
# Every /metrics format carries the serve plane, not just Prometheus.
code="$(fetch '/metrics?format=csv' "$TMP/metrics.csv")"
[ "$code" = 200 ] || fail "/metrics?format=csv returned $code"
grep -q '^#serve$' "$TMP/metrics.csv" || fail "CSV /metrics lacks the serve section"
grep -q '^port,offered_words,admitted_words,shed_words,drain_discarded_words,queue_words$' "$TMP/metrics.csv" \
    || fail "CSV /metrics lacks the serve ingest ledger"
code="$(fetch '/metrics?format=jsonl' "$TMP/metrics.jsonl")"
[ "$code" = 200 ] || fail "/metrics?format=jsonl returned $code"
grep -q '^{"record":"serve","state":[0-9].*"offered_words":' "$TMP/metrics.jsonl" \
    || fail "JSONL /metrics lacks the serve record"

echo "== serve smoke: degrade flips readiness, SLO gate trips =="
# The frozen crossbar degrades port 1 shortly after cycle 30000; /readyz
# must flip 503 with the port named, while /healthz stays 200 (degraded,
# not dead).
i=0
while [ $i -lt 300 ]; do
    code="$(fetch /readyz "$TMP/readyz.json")"
    [ "$code" = 503 ] && grep -q 'port 1' "$TMP/readyz.json" && break
    sleep 0.1
    i=$((i + 1))
done
[ "$code" = 503 ] || fail "/readyz never flipped on degrade (last $code)"
code="$(fetch /healthz "$TMP/healthz2.json")"
[ "$code" = 200 ] || fail "degraded /healthz = $code, want 200"

# Three live ports cannot hold 15 Gbps: the throughput gate must log a
# typed violation that surfaces in both the serve counter and the
# telemetry event series.
i=0
while [ $i -lt 300 ]; do
    fetch /metrics "$TMP/metrics2.txt" >/dev/null
    if grep -q '^raw_router_serve_slo_violations_total [1-9]' "$TMP/metrics2.txt"; then break; fi
    sleep 0.1
    i=$((i + 1))
done
grep -q '^raw_router_serve_slo_violations_total [1-9]' "$TMP/metrics2.txt" \
    || fail "throughput SLO never tripped while degraded"
grep -q 'slo-violation' "$TMP/metrics2.txt" || fail "slo-violation missing from the event series"

echo "== serve smoke: /drain checkpoints and exits =="
code="$(post /drain "$TMP/drain.json")"
[ "$code" = 200 ] || fail "/drain returned $code"
grep -q '"checkpoint": ' "$TMP/drain.json" || fail "/drain response lacks the checkpoint path"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    [ $i -lt 100 ] || fail "daemon still alive after drain"
    sleep 0.1
    i=$((i + 1))
done
wait "$DAEMON_PID" || fail "daemon exited non-zero after a clean drain"
DAEMON_PID=""
[ -s "$TMP/ckpt.srv" ] || fail "drain checkpoint missing"

echo "== serve smoke: restore resumes deterministically =="
# Resume the drain checkpoint twice (same flags, same fault schedule —
# the restore layer replays and verifies the state bit-for-bit) and a
# bounded continuation must produce byte-identical checkpoints.
SLICE="$(sed -n 's/.*exit [a-z-]* at cycle [0-9]* (slice \([0-9]*\)).*/\1/p' "$TMP/daemon.log" | head -n 1)"
[ -n "$SLICE" ] || fail "could not parse the drained slice index"
MAX=$((SLICE + 8))
for leg in r1 r2; do
    "$TMP/rawrouter" $SERVE_FLAGS -maxslices "$MAX" \
        -restore "$TMP/ckpt.srv" -checkpoint "$TMP/$leg.srv" \
        >"$TMP/$leg.log" 2>&1 || { cat "$TMP/$leg.log" >&2; fail "restore leg $leg failed"; }
    grep -q 'restored checkpoint' "$TMP/$leg.log" || fail "leg $leg did not restore"
done
cmp -s "$TMP/r1.srv" "$TMP/r2.srv" || fail "restored continuations diverged (checkpoints differ)"

echo "serve smoke: OK (degrade -> SLO trip -> drain -> deterministic resume)"
