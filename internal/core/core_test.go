package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/raw"
	"repro/internal/rotor"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func mustRouter(t *testing.T, cfg router.Config) *core.Router {
	t.Helper()
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sources(t *testing.T, spec traffic.Spec) []traffic.Source {
	t.Helper()
	w, err := traffic.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := w.Sources()
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

func perm(size, offset int) traffic.Spec {
	return traffic.Spec{Pattern: "permutation", Size: size, Params: map[string]float64{"offset": float64(offset)}}
}

// saturate steps the quantum-level model for cycles cycles with every
// input topped up to four queued packets from next, and returns the
// delivered packets and the goodput at the Raw chip's 250 MHz.
func saturate(f *rotor.Fabric, cycles int64, next func(port int) (dst, words int)) (int64, float64) {
	for f.Cycles < cycles {
		for p := 0; p < f.Config().Ports; p++ {
			for f.QueueLen(p) < 4 {
				dst, words := next(p)
				f.Offer(p, dst, words)
			}
		}
		f.StepQuantum()
	}
	return f.TotalPkts(), stats.Gbps(f.TotalWords()*4, f.Cycles, 250e6)
}

func TestCycleEngineQuickstart(t *testing.T) {
	r := mustRouter(t, router.DefaultConfig())
	res := r.RunSaturated(30000, sources(t, perm(1024, 1)))
	if res.Packets < 50 {
		t.Fatalf("only %d packets delivered", res.Packets)
	}
	if res.Gbps < 20 {
		t.Fatalf("cycle engine peak %.2f Gbps, expected ≈26", res.Gbps)
	}
}

func TestFabricEngineQuickstart(t *testing.T) {
	rng := traffic.NewRNG(2)
	pkts, gbps := saturate(rotor.NewFabric(rotor.DefaultFabricConfig()), 100000,
		func(int) (int, int) { return rng.Intn(4), 256 })
	if pkts < 100 {
		t.Fatalf("only %d packets delivered", pkts)
	}
	if gbps < 10 || gbps > 32 {
		t.Fatalf("fabric engine %.2f Gbps out of range", gbps)
	}
}

func TestEnginesAgreeOnShape(t *testing.T) {
	// The cycle router and the quantum-level rotor model must agree on
	// the peak/average ratio within a few points — they share the
	// allocation algorithm.
	peak := mustRouter(t, router.DefaultConfig()).RunSaturated(60000, sources(t, perm(256, 2))).Gbps
	avg := mustRouter(t, router.DefaultConfig()).RunSaturated(60000,
		sources(t, traffic.Spec{Pattern: "uniform", Size: 256, Seed: 3})).Gbps
	rc := avg / peak

	_, fpeak := saturate(rotor.NewFabric(rotor.DefaultFabricConfig()), 60000,
		func(p int) (int, int) { return (p + 2) % 4, 64 })
	rng := traffic.NewRNG(3)
	_, favg := saturate(rotor.NewFabric(rotor.DefaultFabricConfig()), 60000,
		func(int) (int, int) { return rng.Intn(4), 64 })
	rf := favg / fpeak
	if d := rc - rf; d > 0.12 || d < -0.12 {
		t.Fatalf("cycle ratio %.3f vs fabric ratio %.3f: engines diverge", rc, rf)
	}
}

func TestFabricScaling8Ports(t *testing.T) {
	cfg := rotor.DefaultFabricConfig()
	cfg.Ports = 8
	rng := uint64(0)
	pkts, _ := saturate(rotor.NewFabric(cfg), 50000, func(int) (int, int) {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % 8, 128
	})
	if pkts < 100 {
		t.Fatalf("8-port fabric delivered %d packets", pkts)
	}
}

func TestWeightsBothEngines(t *testing.T) {
	// Quantum-level model.
	fcfg := rotor.DefaultFabricConfig()
	fcfg.Weights = []int{3, 1, 1, 1}
	f := rotor.NewFabric(fcfg)
	saturate(f, 200_000, func(int) (int, int) { return 2, 64 })
	if f.GrantsPerInput[0] < 2*f.GrantsPerInput[1] {
		t.Fatalf("fabric weights ineffective: %v", f.GrantsPerInput)
	}
	// Cycle router accepts weights too (full check in internal/router).
	cfg := router.DefaultConfig()
	cfg.Weights = []int{3, 1, 1, 1}
	if _, err := core.New(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Weights = []int{3, 1}
	if _, err := core.New(cfg); err == nil {
		t.Fatal("bad weights accepted by cycle engine")
	}
}

func TestCryptoOptionPassthrough(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Crypto, cfg.CryptoKey = true, 5
	r := mustRouter(t, cfg)
	if !r.Cycle().Config().Crypto || r.Cycle().Config().CryptoKey != 5 {
		t.Fatal("crypto options not passed through")
	}
}

// The supplied configuration is the whole router configuration, and
// the results' rates use its clock.
func TestRouterConfigWins(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.ClockHz = 125e6
	cfg.Engine = raw.EngineFast
	cfg.QuantumWords = 128
	cfg.Crypto = true
	cfg.CryptoKey = 9
	cfg.Weights = []int{3, 1, 1, 1}
	r := mustRouter(t, cfg)
	if got := r.Cycle().Config(); got.ClockHz != cfg.ClockHz || got.Engine != cfg.Engine ||
		got.QuantumWords != cfg.QuantumWords || !got.Crypto || got.CryptoKey != cfg.CryptoKey ||
		!reflect.DeepEqual(got.Weights, cfg.Weights) {
		t.Fatalf("router built with clock %v, engine %v, quantum %d, crypto %v key %d, weights %v; want the supplied config",
			got.ClockHz, got.Engine, got.QuantumWords, got.Crypto, got.CryptoKey, got.Weights)
	}
	res := r.RunSaturated(20000, sources(t, perm(256, 2)))
	if res.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if res.ClockHz != cfg.ClockHz || res.Gbps != stats.Gbps(res.Bytes, res.Cycles, cfg.ClockHz) {
		t.Fatalf("results at %v Hz, %.3f Gbps; want rates at the supplied %v Hz", res.ClockHz, res.Gbps, cfg.ClockHz)
	}
}

// A nil source leaves its input idle: nothing is offered there, and the
// other inputs still run at full backlog.
func TestNilSourceIdlesInput(t *testing.T) {
	r := mustRouter(t, router.DefaultConfig())
	srcs := sources(t, perm(1024, 1))
	srcs[3] = nil
	res := r.RunSaturated(30000, srcs)
	if in := r.Cycle().Stats().PktsIn[3]; in != 0 {
		t.Fatalf("idle input 3 took in %d packets", in)
	}
	// Input p sends to p+1, so egress 0 (fed by input 3) stays silent.
	if res.PerPort[0] != 0 || res.PerPort[1] == 0 || res.PerPort[2] == 0 || res.PerPort[3] == 0 {
		t.Fatalf("per-egress packets %v; want only egress 0 idle", res.PerPort)
	}
}
