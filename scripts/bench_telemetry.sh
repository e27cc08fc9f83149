#!/bin/sh
# bench-telemetry: measure the telemetry plane's cost and regenerate
# BENCH_telemetry.json, failing if the DISABLED plane costs more than
# GATE_PCT (default 1) percent.
#
# "Disabled overhead" is the cost of the nil-guarded telemetry hooks
# versus a binary that predates them, so it cannot be measured inside one
# binary. The script checks out the last pre-telemetry commit (pinned
# below) into a throwaway worktree, compiles both bench binaries once,
# and then alternates PRE/CUR legs round-robin. Each round's two legs run
# back-to-back under near-identical host load, so the gate scores the
# MINIMUM per-round ratio cur/pre: a load burst inflates whole rounds
# (which the minimum discards), while a real hook cost inflates every
# round's ratio and cannot hide. The armed plane ("on") and the
# exporters ("export") are also recorded, but only the disabled path is
# gated — arming the collector is opt-in.
set -eu
cd "$(dirname "$0")/.."

# Last commit before the telemetry hooks entered the router hot path.
PRE_COMMIT=c29afd5
ROUNDS="${ROUNDS:-5}"
BENCHTIME="${BENCHTIME:-1s}"
GATE_PCT="${GATE_PCT:-1}"
OUT="${OUT:-BENCH_telemetry.json}"

WT=$(mktemp -d /tmp/bench_telemetry_pre.XXXXXX)
PRE_BIN="$WT/pre.test"
CUR_BIN="$WT/cur.test"
PRE_OUT="$WT/pre.out"
CUR_OUT="$WT/cur.out"
REST_OUT="$WT/rest.out"
cleanup() {
	git worktree remove --force "$WT/tree" 2>/dev/null || true
	rm -rf "$WT"
}
trap cleanup EXIT

echo "== bench-telemetry: building PRE ($PRE_COMMIT) and CUR bench binaries =="
git worktree add --detach "$WT/tree" "$PRE_COMMIT" >/dev/null
(cd "$WT/tree" && go test -c -o "$PRE_BIN" .)
go test -c -o "$CUR_BIN" .

echo "== interleaved disabled-overhead legs: $ROUNDS rounds x $BENCHTIME =="
: > "$PRE_OUT"
: > "$CUR_OUT"
i=1
while [ "$i" -le "$ROUNDS" ]; do
	"$PRE_BIN" -test.run '^$' -test.benchtime "$BENCHTIME" \
		-test.bench 'BenchmarkSimulatorCyclesPerSecond/workers=1$' | tee -a "$PRE_OUT"
	"$CUR_BIN" -test.run '^$' -test.benchtime "$BENCHTIME" \
		-test.bench 'BenchmarkTelemetryOverhead/off$' | tee -a "$CUR_OUT"
	i=$((i + 1))
done

echo "== armed-plane and exporter legs (for the record, not gated) =="
"$CUR_BIN" -test.run '^$' -test.benchtime "$BENCHTIME" -test.count 3 \
	-test.bench 'BenchmarkTelemetryOverhead/(on|export)$' | tee "$REST_OUT"

awk -v gate_pct="$GATE_PCT" -v out="$OUT" -v rounds="$ROUNDS" \
	-v benchtime="$BENCHTIME" -v pre_commit="$PRE_COMMIT" \
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
	printf "    {\n      \"name\": \"%s\",\n      \"ns_per_op\": [%s],\n      \"median_ns_per_op\": %d,\n      \"min_ns_per_op\": %d\n    }", name, list(leg), median(leg), min[leg] >> out
}
FNR == 1 { file++ }
/^BenchmarkSimulatorCyclesPerSecond/ { push("pre", $3) }
/^BenchmarkTelemetryOverhead\/off/ { push("off", $3) }
/^BenchmarkTelemetryOverhead\/on/ { push("on", $3) }
/^BenchmarkTelemetryOverhead\/export/ { push("export", $3) }
END {
	for (i = 1; i <= n["off"] && i <= n["pre"]; i++) {
		r = vals["off", i] / vals["pre", i]
		if (minratio == "" || r < minratio) minratio = r
	}
	overhead = (minratio - 1) * 100
	printf "{\n" > out
	printf "  \"benchmark\": \"BenchmarkTelemetryOverhead\",\n  \"date\": \"%s\",\n", date >> out
	printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"num_cpu\": %d,\n", goos, goarch, cpu, numcpu >> out
	printf "  \"sim_cycles_per_op\": 200,\n" >> out
	printf "  \"command\": \"scripts/bench_telemetry.sh (ROUNDS=%s BENCHTIME=%s, PRE=%s)\",\n", rounds, benchtime, pre_commit >> out
	printf "  \"results\": [\n" >> out
	emit(sprintf("pre-telemetry baseline (commit %s, interleaved)", pre_commit), "pre")
	printf ",\n" >> out
	emit("off (cfg.Metrics == nil, nil-guarded hooks only, interleaved)", "off")
	printf ",\n" >> out
	emit("on (collector armed: per-quantum sampling + flight recorder)", "on")
	printf ",\n" >> out
	emit("export (TelemetrySnapshot + jsonl, csv, and prom encoders per op)", "export")
	printf "\n  ],\n" >> out
	printf "  \"gate\": {\n    \"disabled_overhead_pct\": %.2f,\n    \"bar_pct\": %s,\n    \"compares\": \"min over rounds of the paired ratio off/pre (legs adjacent in time)\"\n  },\n", overhead, gate_pct >> out
	printf "  \"notes\": [\n" >> out
	printf "    \"Acceptance bar: with cfg.Metrics == nil the telemetry hooks (one nil check per cycle in the control hook, one per quantum in the crossbar firmware) must cost <%s%% versus the pre-telemetry commit. PRE and CUR legs alternate in the same session; each round is scored as the ratio of its adjacent legs and the gate takes the minimum over %s rounds, so load bursts (which inflate whole rounds) are discarded while a real hook cost (which inflates every ratio) cannot hide.\",\n", gate_pct, rounds >> out
	printf "    \"The armed plane (on) and the exporters (export) are recorded for reference only: arming is opt-in via Config.Metrics / the -metrics flag, and snapshot export runs after the simulation, never on its hot path.\",\n" >> out
	printf "    \"Exports are bit-for-bit identical across replays (TestTelemetryExportBitForBit); this file records wall-clock only.\"\n" >> out
	printf "  ]\n}\n" >> out
	printf "disabled overhead: best paired round off/pre = %.4f -> %+.2f%% (bar %s%%)\n", minratio, overhead, gate_pct
	if (overhead > gate_pct + 0) {
		printf "bench-telemetry: FAIL: disabled telemetry hooks cost %.2f%% > %s%%\n", overhead, gate_pct
		exit 1
	}
	printf "bench-telemetry: PASS (%s written)\n", out
}' "$PRE_OUT" "$CUR_OUT" "$REST_OUT"
