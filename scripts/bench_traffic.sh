#!/bin/sh
# bench-traffic: measure the open-loop arrival front-end against the
# simulation it feeds and regenerate BENCH_traffic.json, failing if
# generating arrivals costs more than GATE_PCT (default 1) percent of
# the reference engine's step cost.
#
# Both legs live in the same binary (BenchmarkTrafficPlane), so the
# script compiles it once and alternates gen/step legs round-robin over
# the same 1,024 simulated cycles per op:
#
#   gen   one Process.Slice call on the heavy-tailed flows workload
#         (bounded-Pareto sizes, Zipf destinations, IMIX packet mix)
#   step  the reference-engine router stepping 1,024 cycles under
#         saturated permutation traffic
#
# Each round's legs run back-to-back under near-identical host load,
# and the gate scores the MINIMUM per-round ratio gen/step: a load
# burst inflates whole rounds (discarded by the minimum), while a real
# regression in the generator inflates every round's ratio and cannot
# hide. The script also regenerates the checked-in seeded trace
# artifact (internal/traffic/testdata/daymini.traf) from its preset
# spec and byte-diffs it, so the bench gate and the determinism gate
# travel together.
set -eu
cd "$(dirname "$0")/.."

ROUNDS="${ROUNDS:-5}"
BENCHTIME="${BENCHTIME:-1s}"
GATE_PCT="${GATE_PCT:-1}"
OUT="${OUT:-BENCH_traffic.json}"

WT=$(mktemp -d /tmp/bench_traffic.XXXXXX)
BIN="$WT/bench.test"
LEGS="$WT/legs.out"
cleanup() { rm -rf "$WT"; }
trap cleanup EXIT

echo "== bench-traffic: golden trace artifact regenerates byte-identical =="
go test ./internal/traffic -run 'TestGoldenTraceArtifact|TestTraceRoundTrip'

echo "== bench-traffic: building bench binary =="
go test -c -o "$BIN" .

echo "== interleaved gen/step legs: $ROUNDS rounds x $BENCHTIME =="
: > "$LEGS"
i=1
while [ "$i" -le "$ROUNDS" ]; do
	for leg in gen step; do
		"$BIN" -test.run '^$' -test.benchtime "$BENCHTIME" \
			-test.bench "BenchmarkTrafficPlane/$leg\$" | tee -a "$LEGS"
	done
	i=$((i + 1))
done

awk -v gate_pct="$GATE_PCT" -v out="$OUT" -v rounds="$ROUNDS" \
	-v benchtime="$BENCHTIME" \
	-v date="$(date +%Y-%m-%d)" -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" \
	-v numcpu="$(nproc)" \
	-v cpu="$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo)" '
function push(leg, v) {
	n[leg]++
	vals[leg, n[leg]] = v + 0
	if (min[leg] == "" || v + 0 < min[leg]) min[leg] = v + 0
}
function median(leg,    i, j, tmp, m) {
	m = n[leg]
	for (i = 1; i <= m; i++) sorted[i] = vals[leg, i]
	for (i = 1; i <= m; i++)
		for (j = i + 1; j <= m; j++)
			if (sorted[j] < sorted[i]) { tmp = sorted[i]; sorted[i] = sorted[j]; sorted[j] = tmp }
	return sorted[int((m + 1) / 2)]
}
function list(leg,    i, s) {
	s = ""
	for (i = 1; i <= n[leg]; i++) s = s (i > 1 ? ", " : "") vals[leg, i]
	return s
}
function emit(name, leg) {
	printf "    {\n      \"name\": \"%s\",\n      \"sim_cycles_per_op\": 1024,\n      \"ns_per_op\": [%s],\n      \"median_ns_per_op\": %d,\n      \"min_ns_per_op\": %d\n    }", name, list(leg), median(leg), min[leg] >> out
}
/^BenchmarkTrafficPlane\/gen/ { push("gen", $3) }
/^BenchmarkTrafficPlane\/step/ { push("step", $3) }
END {
	for (i = 1; i <= n["gen"] && i <= n["step"]; i++) {
		r = vals["gen", i] / vals["step", i]
		if (minratio == "" || r < minratio) minratio = r
	}
	overhead = minratio * 100
	printf "{\n" > out
	printf "  \"benchmark\": \"BenchmarkTrafficPlane\",\n  \"date\": \"%s\",\n", date >> out
	printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"num_cpu\": %d,\n", goos, goarch, cpu, numcpu >> out
	printf "  \"command\": \"scripts/bench_traffic.sh (ROUNDS=%s BENCHTIME=%s)\",\n", rounds, benchtime >> out
	printf "  \"results\": [\n" >> out
	emit("gen (one open-loop Slice: heavy-tailed flows, Zipf dst, IMIX sizes, rate 0.8)", "gen")
	printf ",\n" >> out
	emit("step (reference engine, 1024 cycles, saturated 1024B permutation)", "step")
	printf "\n  ],\n" >> out
	printf "  \"gate\": {\n    \"generation_overhead_pct\": %.2f,\n    \"bar_pct\": %s,\n    \"compares\": \"min over rounds of the paired ratio gen/step (legs adjacent in time)\"\n  },\n", overhead, gate_pct >> out
	printf "  \"notes\": [\n" >> out
	printf "    \"Acceptance bar: generating one slice of open-loop arrivals must cost <%s%% of the reference engine stepping the same 1,024 simulated cycles — the arrival front-end may not meaningfully slow the simulation it feeds. The flows process memoizes its sliding flow-index window, so sequential slices realize only the leading edge of the maxflow look-back.\",\n", gate_pct >> out
	printf "    \"The same invocation regenerates internal/traffic/testdata/daymini.traf from the daymini preset and byte-diffs it (TestGoldenTraceArtifact): the bench gate and the arrivals-are-a-pure-function-of-the-spec gate travel together.\",\n" >> out
	printf "    \"Arrivals are bit-identical across engines by construction (the process never sees the consumer); TestTraceLedgerAcrossConsumers in internal/exp checks the delivered-word ledgers agree.\"\n" >> out
	printf "  ]\n}\n" >> out
	printf "generation overhead: best paired round gen/step = %.4f%% (bar %s%%)\n", overhead, gate_pct
	if (overhead > gate_pct + 0) {
		printf "bench-traffic: FAIL: arrival generation costs %.2f%% > %s%% of ref-engine stepping\n", overhead, gate_pct
		exit 1
	}
	printf "bench-traffic: PASS (%s written)\n", out
}' "$LEGS"
