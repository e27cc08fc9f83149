# Verification tiers (see ROADMAP.md).
#
#   tier1  - build + unit/equivalence tests (the gate every change must pass)
#   tier2  - static analysis + the full suite under the race detector
#            (guards the serve daemon's HTTP control-plane goroutines)
#   chaos  - the fault-injection chaos harness under the race detector
#            (fixed seed matrix; conservation + bit-for-bit replay)
#   soak   - the 20-seed degrade->restore chaos matrix under the race
#            detector, each seed with a mid-run checkpoint/restore that
#            must continue bit-for-bit identical to the uninterrupted
#            run, plus the fabric chip-loss soak (whole-chip kill ->
#            re-admission with a mid-arc fabric checkpoint)
#   soak-heal - the seeded fabric healing soak: each seed rides a
#            killtrunk -> ARQ -> restoretrunk -> killchip -> restorechip
#            arc on a healed ring, with a mid-heal (trunk dark, ARQ
#            pending) FABCKPT1 checkpoint that must continue
#            byte-identical, zero silent word loss at the end
#   fuzz   - short runs of the interpreter, allocator, fault-schedule,
#            chip-snapshot, engine-equivalence, topology-spec, and
#            workload-spec fuzz targets,
#            plus the router, fabric, serve-checkpoint and TRAF1 decoders
#            (any bytes: an error or success, never a panic)
#   bench  - the repo benchmark, bash bench/run.sh (see bench/README.md):
#            the four BENCHMARK.json workloads on the fast engine, each
#            in its own process, reporting host ns per simulated cycle,
#            CPU ns per cycle, setup time and peak RSS
#   gates  - the performance gates (go run ./scripts/gates): paired
#            rounds of benchmark legs, rewriting BENCH_gates.json; fails
#            if the fast engine is not >=2x the reference interpreter on
#            the 1,024-byte streaming workload and >=5x on the full
#            router (with macro windows engaged), or if idle healing,
#            the disabled telemetry plane or traffic generation costs
#            >1%
#   serve-smoke - the daemon-mode lifecycle smoke: boot rawrouter -serve
#            as a real process, drive healthz/readyz/metrics over HTTP
#            through a latched degrade + SLO violation, /drain to a
#            checkpoint, and restore it twice to byte-identical
#            continuations; plus the in-process serve suite under -race

GO ?= go
SOAK_SEEDS ?= 20

.PHONY: all tier1 tier2 chaos soak soak-heal fuzz bench gates serve-smoke ci

all: tier1

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2:
	$(GO) vet ./...
	$(GO) test -race ./...

chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/fault
	$(GO) test -race -v -run 'TestWatchdog|TestManualDegrade|TestDegraded|TestDropConservation' ./internal/router

soak:
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -v -timeout 60m -run 'TestSoak' ./internal/fault
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -v -timeout 60m -run 'TestSoakChipLoss' ./internal/cluster
	$(GO) test -race -run 'TestRestore|TestDegradeRestore|TestAutoRestore|TestRouterSnapshot|TestLineFlap|TestReprobe' ./internal/router

soak-heal:
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -v -timeout 60m -run 'TestSoakHeal' ./internal/cluster

fuzz:
	$(GO) test ./internal/raw/asm -fuzz FuzzInterp -fuzztime 30s
	$(GO) test ./internal/rotor -fuzz FuzzAllocate -fuzztime 30s
	$(GO) test ./internal/fault -fuzz FuzzFaultSchedule -fuzztime 30s
	$(GO) test ./internal/raw -fuzz FuzzSnapshotRoundTrip -fuzztime 30s
	$(GO) test ./internal/raw -fuzz FuzzEngineEquivalence -fuzztime 30s
	$(GO) test ./internal/cluster -fuzz FuzzTopologySpec -fuzztime 30s
	$(GO) test ./internal/traffic -fuzz FuzzWorkloadSpec -fuzztime 30s
	$(GO) test ./internal/router -fuzz FuzzRouterRestore -fuzztime 30s
	$(GO) test ./internal/cluster -fuzz FuzzFabricRestore -fuzztime 30s
	$(GO) test ./internal/serve -fuzz FuzzCheckpointDecode -fuzztime 30s
	$(GO) test ./internal/traffic -fuzz FuzzParseTrace -fuzztime 30s

bench:
	bash bench/run.sh

gates:
	$(GO) run ./scripts/gates

serve-smoke:
	$(GO) test -race ./internal/serve ./internal/cli
	sh scripts/serve_smoke.sh

ci: tier1 tier2 chaos soak soak-heal gates serve-smoke
