#!/bin/sh
# CI gate: tier-1 (build + tests) then tier-2 (vet + race detector).
# The race run guards the serve daemon's HTTP control-plane goroutines,
# which must reach simulator state only through its control channel and
# published Status.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: build + test =="
go build ./...
go test ./...

echo "== tier-2: gofmt + vet + race =="
test -z "$(gofmt -l .)"
go vet ./...
go test -race ./...

echo "== bench: the repo benchmark's own tests =="
# bench/ is a separate module, so ./... above skips it. Its tests check
# that the reference and fast engines produce equal digests, that the
# digests match bench/golden.json, and that BENCHMARK.json stays in step
# with the command.
(cd bench && go test ./...)

echo "== engine fuzz: bounded generative run =="
# FuzzEngineEquivalence's 64 seeds run in tier-1; this explores new
# scenarios for a bounded minute, checking the fast engine's park-set
# invariants and its equivalence with the reference engine.
go test ./internal/raw -run '^$' -fuzz FuzzEngineEquivalence -fuzztime 60s

echo "== tier-2: chaos harness (fixed seed matrix, race detector) =="
# Seeds are pinned inside the tests (fault.Random seeds 1,2,3,5,7 and the
# crash/corruption schedules), so this matrix is fully reproducible:
# conservation, no-duplication, and bit-for-bit replay.
# TestChaosEngineEquivalence re-runs every schedule under the
# compiled fast engine (-engine fast) and requires identical fingerprints.
go test -race -run 'TestChaos' ./internal/fault
go test -race -run 'TestWatchdog|TestManualDegrade|TestDegraded|TestDropConservation' ./internal/router

echo "== soak: degrade->restore matrix with mid-run checkpoint/restore (race detector) =="
# Every seed freezes a crossbar tile under recoverable noise, rides the
# watchdog degrade -> thaw -> auto-restore -> probation arc, and must
# (a) conserve and deliver every packet intact, and (b) continue
# bit-for-bit identical after a mid-arc checkpoint is restored into a
# fresh router under the other cycle engine (the cross-engine
# checkpoint gate). TestSoakEngineEquivalence additionally requires byte-identical
# final checkpoints, event logs, and telemetry exports between engines.
# SOAK_SEEDS widens the matrix (make soak runs 20).
SOAK_SEEDS="${SOAK_SEEDS:-20}" go test -race -timeout 60m -run 'TestSoak' ./internal/fault
go test -race -run 'TestRestore|TestDegradeRestore|TestAutoRestore|TestRouterSnapshot|TestLineFlap|TestReprobe' ./internal/router

echo "== fabric: chip-loss soak + cross-engine topology conformance (race detector) =="
# Every seed schedules a whole-chip kill -> dead interval -> re-admission
# arc on a live N-chip fabric through the fault grammar
# (killchip@/restorechip@), checkpoints the whole fabric mid-arc (chip
# down) as one FABCKPT1 blob, restores it into a fresh fabric, and must
# finish byte-identical to the uninterrupted run. The conformance matrix
# fingerprint-diffs every topology kind (ring / mesh / fat-tree,
# including the 16-chip 64-port mesh) between the reference interpreter
# and the compiled fast engine, plus a mid-run
# engine switch through a fabric checkpoint. Chips step in parallel
# inside each slice, so a healed mesh-4x4 arc must also end in identical
# fingerprints, checkpoints and telemetry at GOMAXPROCS 1 and 4,
# repeated to give the race detector many interleavings.
SOAK_SEEDS="${SOAK_SEEDS:-20}" go test -race -timeout 60m -run 'TestSoakChipLoss' ./internal/cluster
go test -race -timeout 60m -run 'TestEngineConformanceMatrix|TestMesh16ChipConformance|TestEngineSwitchMidRun' ./internal/cluster
go test -race -timeout 60m -count=10 -run TestFabricStepIndependentOfProcs ./internal/cluster

echo "== healing: seeded heal soak + heal conformance (race detector) =="
# Every seed rides a full healing arc on a healed ring-4 — killtrunk
# (ARQ takes custody, routes detour) -> restoretrunk (tables roll back,
# pending frames re-drive) -> killchip -> restorechip — checkpoints the
# fabric MID-HEAL (trunk dark, retransmit queue non-empty) as one
# FABCKPT1 blob, and must continue byte-identical to the uninterrupted
# run with the end-to-end ledger balanced and zero pending frames at the
# end. TestHealConformance replays one scheduled arc under the reference
# interpreter and the fast engine and requires
# identical fingerprints and state digests.
SOAK_SEEDS="${SOAK_SEEDS:-20}" go test -race -timeout 60m -run 'TestSoakHeal' ./internal/cluster
go test -race -run 'TestHealConformance|TestHealReroute|TestTrunkARQ|TestPartitionError|TestKillChipAccountsHeldFrames' ./internal/cluster

echo "== telemetry: export determinism =="
# Exports must be byte-identical across replays.
go test -race -run 'TestTelemetry' ./internal/fault

echo "== traffic: open-loop determinism + ledger conformance =="
# The production traffic plane: open-loop arrivals must be a pure
# function of (spec, slice) — the checked-in seeded daymini trace
# regenerates byte-identically, record->replay round-trips exactly, and
# one heavy-tailed trace drives the Raw router (both engines, live and
# replayed), the serve daemon, and the Click baseline to the identical
# per-destination delivered-word ledger.
go test -race ./internal/traffic
go test -race -run 'TestTraceLedgerAcrossConsumers|TestHeavyTail' ./internal/exp

echo "== gates: engine speedup + healing/telemetry/traffic overhead =="
# One table-driven runner (scripts/gates) interleaves paired benchmark
# legs and scores each gate as the minimum paired ratio over five
# rounds, rewriting BENCH_gates.json. The fast engine must be at least
# 2x the reference interpreter on the 1,024-byte streaming steady state
# and 5x on the full router with macro windows engaged; arming -heal on
# a healthy fabric, the disabled telemetry plane (against the last
# pre-telemetry commit) and generating arrivals (against a ref-engine
# step) must each cost <1%.
go run ./scripts/gates

echo "== cli: entry-point smoke =="
# The commands users run must print identical output under the reference
# interpreter and the fast engine: rawrouter on its default workload (also
# with a seeded fault schedule, with the Figure 7-3 tracer, whose due
# cycles bound the fast engine's macro windows, with a corrupt tap past
# the end of the run, which must not keep windows from opening, through
# the whole recovery arc: a frozen crossbar tile is degraded by the
# watchdog, thaws, is restored and readmitted, and ends live, with a
# crashed crossbar tile, which is due only at its start, and on 64 B
# uniform traffic, the benchmark's per-cycle workload, whose lookups
# keep the dynamic memory network busy),
# fabsim's ring-4 fabric on its default antipodal permutation, and every
# section of reproduce -quick once its per-section wall-clock lines are
# dropped. rawrouter's RTRCKPT1 checkpoint (with and without a seeded
# fault schedule, and after the crash) must be byte-identical across
# engines, and restoring
# the reference engine's blob must print the same under either engine.
# rawrouter with no
# traffic flag must also print exactly what -workload permutation prints.
# fabsim's mesh-16 must print the same at one worker as at the default
# GOMAXPROCS. An unknown reproduce -exp section and a fabsim run without
# -topology must exit 2. Macro windows must open past a never-reached
# corrupt tap and keep opening after the crash (at least half the
# healthy run's windows; a crash that stayed due opened none after it),
# and the fast engine must park tiles at 64 B uniform (a skip that never
# engages fails here).
# examples/edgerouter, the only run whose table fills DRAM chunks (1,972
# of them for its /9-/24 prefixes), must print exactly the lines below,
# and so must examples/multicast, the only run that prints the §8.6
# mixed walk's per-tile configurations, and examples/rawasm, whose exit
# cycles and retired count pin the assembly interpreter's timing.
CLI="$(mktemp -d)"
trap 'rm -rf "$CLI"' EXIT
go build -o "$CLI/" ./cmd/rawrouter ./cmd/fabsim ./cmd/reproduce ./examples/edgerouter ./examples/multicast ./examples/rawasm
RR="$CLI/rawrouter -cycles 20000 -warmup 10000"
$RR -engine ref >"$CLI/rr-ref.txt"
$RR -engine fast >"$CLI/rr-fast.txt"
$RR -workload permutation >"$CLI/rr-perm.txt"
cmp "$CLI/rr-ref.txt" "$CLI/rr-fast.txt"
cmp "$CLI/rr-fast.txt" "$CLI/rr-perm.txt"
ARC="-cycles 100000 -watchdog -autorestore -faults freeze@15000+45000:t6"
CRASH="-watchdog -faults crash@15000:t6"
for flag in "-faultseed 7" -trace "-faults corrupt:t4.w.w999999999.b1" "$ARC" "$CRASH" "-workload uniform:size=64"; do
	$RR $flag -engine ref >"$CLI/rr-flag-ref.txt"
	$RR $flag -engine fast >"$CLI/rr-flag-fast.txt"
	cmp "$CLI/rr-flag-ref.txt" "$CLI/rr-flag-fast.txt"
done
for flag in "" "-faultseed 7" "$CRASH"; do
	$RR $flag -engine ref -checkpoint "$CLI/ck-ref.bin" >/dev/null
	$RR $flag -engine fast -checkpoint "$CLI/ck-fast.bin" >/dev/null
	cmp "$CLI/ck-ref.bin" "$CLI/ck-fast.bin"
	$RR $flag -engine ref -restore "$CLI/ck-ref.bin" >"$CLI/rs-ref.txt"
	$RR $flag -engine fast -restore "$CLI/ck-ref.bin" >"$CLI/rs-fast.txt"
	cmp "$CLI/rs-ref.txt" "$CLI/rs-fast.txt"
done
$RR -faults corrupt:t4.w.w999999999.b1 -metrics prom | grep -q '^raw_router_macro_windows_total [1-9]'
windows() { $RR "$@" -metrics prom | sed -n 's/^raw_router_macro_windows_total //p'; }
healthy=$(windows -watchdog)
crashed=$(windows $CRASH)
[ "$crashed" -gt 0 ] && [ $((2 * crashed)) -gt "$healthy" ]
$RR -workload uniform:size=64 -metrics prom | grep -q '^raw_router_parked_tile_cycles_total [1-9]'
$RR $ARC -engine fast -metrics prom | grep -q '^raw_router_recovery_events_total{kind="live"} 1$'
"$CLI/fabsim" -topology ring -chips 4 -engine ref >"$CLI/fab-ref.txt"
"$CLI/fabsim" -topology ring -chips 4 -engine fast >"$CLI/fab-fast.txt"
cmp "$CLI/fab-ref.txt" "$CLI/fab-fast.txt"
GOMAXPROCS=1 "$CLI/fabsim" -topology mesh -chips 16 >"$CLI/mesh-p1.txt"
"$CLI/fabsim" -topology mesh -chips 16 >"$CLI/mesh.txt"
cmp "$CLI/mesh-p1.txt" "$CLI/mesh.txt"
for engine in ref fast; do
	"$CLI/reproduce" -quick -engine $engine >"$CLI/repro-timed.txt"
	grep -vE '^\([0-9.]*s\)$' "$CLI/repro-timed.txt" >"$CLI/repro-$engine.txt"
done
cmp "$CLI/repro-ref.txt" "$CLI/repro-fast.txt"
st=0
"$CLI/reproduce" -exp bogus 2>/dev/null || st=$?
[ "$st" -eq 2 ]
st=0
"$CLI/fabsim" 2>/dev/null || st=$?
[ "$st" -eq 2 ]
"$CLI/edgerouter" >"$CLI/edge.txt"
cat >"$CLI/edge-want.txt" <<'EOF'
installed 3882 routes

measured 200000 cycles (0.80 ms of router time at 250 MHz)
forwarded 2106 packets: 6.67 Gbps, 2.63 Mpps
per-egress packets: [574 331 982 219] (port 2 is the hotspot)
arbitration denials (head-of-line waits): 2023
drained and checksum-verified 2698 packets at the output pins
EOF
cmp "$CLI/edge-want.txt" "$CLI/edge.txt"
"$CLI/multicast" >"$CLI/mcast.txt"
cat >"$CLI/mcast-want.txt" <<'EOF'
One quantum, input 0 multicasting to {1,2,3}, token at 0:
  served members: 3 of 3
  crossbar tile 0 config: out<-0/0 cwnext<-in/0 ccwnext<-0/0
  crossbar tile 1 config: out<-cwprev/1 cwnext<-cwprev/1 ccwnext<-0/0
  crossbar tile 2 config: out<-cwprev/2 cwnext<-cwprev/2 ccwnext<-0/0
  crossbar tile 3 config: out<-cwprev/3 cwnext<-0/0 ccwnext<-0/0

Contention trims the served subset (input 1 already owns egress 1):
  input 1 granted: true, input 2 granted members: 1 (egress 3 only)

deliveries per quantum over 100000 quanta:
  unicast copies:    1.00
  fanout-splitting:  3.00  (the §2.2.2 ~40%+ multicast win, here 3x)

cycle-level router: group 224.1.1.1 -> egress copies on ports 1,2,3 after 443 cycles
  ingress streamed 1 fragment(s); crossbar produced 3 copies (mixed jump table: 51 routines)
EOF
cmp "$CLI/mcast-want.txt" "$CLI/mcast.txt"
"$CLI/rawasm" >"$CLI/rawasm.txt"
cat >"$CLI/rawasm-want.txt" <<'EOF'
x -> 2x+7 through a three-tile systolic pipeline:
    1 ->   9   (exited the pins at cycle 28)
    2 ->  11   (exited the pins at cycle 33)
    3 ->  13   (exited the pins at cycle 38)
   10 ->  27   (exited the pins at cycle 43)
  100 -> 207   (exited the pins at cycle 48)
tile 1 retired 33 instructions
EOF
cmp "$CLI/rawasm-want.txt" "$CLI/rawasm.txt"

echo "== serve: daemon-mode smoke =="
# Boot rawrouter -serve as a real process and drive the whole lifecycle
# over HTTP: healthz/readyz, a latched degrade arc that trips the
# throughput SLO gate, /drain -> checkpoint -> clean exit, then two
# restores of the drain checkpoint that must produce byte-identical
# continuations (see scripts/serve_smoke.sh). The same arcs run in-process
# under -race in internal/serve.
go test -race ./internal/serve ./internal/cli
sh scripts/serve_smoke.sh

echo "CI green."
