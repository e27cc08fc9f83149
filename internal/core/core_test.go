package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/stats"
)

func TestCycleEngineQuickstart(t *testing.T) {
	r, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunSaturated(30000, core.PermutationTraffic(1024, 1))
	if res.Packets < 50 {
		t.Fatalf("only %d packets delivered", res.Packets)
	}
	if res.Gbps < 20 {
		t.Fatalf("cycle engine peak %.2f Gbps, expected ≈26", res.Gbps)
	}
	if res.Engine != core.EngineCycle {
		t.Fatal("wrong engine tag")
	}
}

func TestFabricEngineQuickstart(t *testing.T) {
	r, err := core.New(core.Options{Engine: core.EngineFabric})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunSaturated(100000, core.UniformTraffic(1024, 2))
	if res.Packets < 100 {
		t.Fatalf("only %d packets delivered", res.Packets)
	}
	if res.Gbps < 10 || res.Gbps > 32 {
		t.Fatalf("fabric engine %.2f Gbps out of range", res.Gbps)
	}
}

func TestEnginesAgreeOnShape(t *testing.T) {
	// The two fidelity levels must agree on the peak/average ratio within
	// a few points — they share the allocation algorithm.
	ratio := func(engine core.Engine) float64 {
		peakR, _ := core.New(core.Options{Engine: engine})
		peak := peakR.RunSaturated(60000, core.PermutationTraffic(256, 2)).Gbps
		avgR, _ := core.New(core.Options{Engine: engine})
		avg := avgR.RunSaturated(60000, core.UniformTraffic(256, 3)).Gbps
		return avg / peak
	}
	rc := ratio(core.EngineCycle)
	rf := ratio(core.EngineFabric)
	if d := rc - rf; d > 0.12 || d < -0.12 {
		t.Fatalf("cycle ratio %.3f vs fabric ratio %.3f: engines diverge", rc, rf)
	}
}

func TestFabricScaling8Ports(t *testing.T) {
	r, err := core.New(core.Options{Engine: core.EngineFabric, Ports: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(0)
	res := r.RunSaturated(50000, func(port int) core.Packet {
		rng = rng*6364136223846793005 + 1442695040888963407
		return core.Packet{Dst: int(rng>>33) % 8, SizeBytes: 512}
	})
	if res.Packets < 100 {
		t.Fatalf("8-port fabric delivered %d packets", res.Packets)
	}
}

func TestCycleEngineRejectsOddPorts(t *testing.T) {
	if _, err := core.New(core.Options{Ports: 8}); err == nil {
		t.Fatal("cycle engine accepted 8 ports")
	}
}

func TestWeightsBothEngines(t *testing.T) {
	// Fabric engine.
	rf, err := core.New(core.Options{Engine: core.EngineFabric, Weights: []int{3, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rf.RunSaturated(200_000, func(port int) core.Packet { return core.Packet{Dst: 2, SizeBytes: 256} })
	f := rf.Fabric()
	if f.GrantsPerInput[0] < 2*f.GrantsPerInput[1] {
		t.Fatalf("fabric weights ineffective: %v", f.GrantsPerInput)
	}
	// Cycle engine accepts weights too (full check in internal/router).
	if _, err := core.New(core.Options{Weights: []int{3, 1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(core.Options{Weights: []int{3, 1}}); err == nil {
		t.Fatal("bad weights accepted by cycle engine")
	}
}

func TestCryptoOptionPassthrough(t *testing.T) {
	r, err := core.New(core.Options{Crypto: true, CryptoKey: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cycle().Config().Crypto || r.Cycle().Config().CryptoKey != 5 {
		t.Fatal("crypto options not passed through")
	}
}

// A supplied RouterConfig is the whole cycle-engine configuration: the
// Options fields it duplicates must not overwrite it, and the results'
// rates use its clock.
func TestRouterConfigWins(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.ClockHz = 125e6
	cfg.Engine = raw.EngineFast
	cfg.QuantumWords = 128
	cfg.Crypto = true
	cfg.CryptoKey = 9
	cfg.Weights = []int{3, 1, 1, 1}
	r, err := core.New(core.Options{RouterConfig: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cycle().Config(); got.ClockHz != cfg.ClockHz || got.Engine != cfg.Engine ||
		got.QuantumWords != cfg.QuantumWords || !got.Crypto || got.CryptoKey != cfg.CryptoKey ||
		!reflect.DeepEqual(got.Weights, cfg.Weights) {
		t.Fatalf("router built with clock %v, engine %v, quantum %d, crypto %v key %d, weights %v; want the supplied config",
			got.ClockHz, got.Engine, got.QuantumWords, got.Crypto, got.CryptoKey, got.Weights)
	}
	res := r.RunSaturated(20000, core.PermutationTraffic(256, 2))
	if res.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if res.ClockHz != cfg.ClockHz || res.Gbps != stats.Gbps(res.Bytes, res.Cycles, cfg.ClockHz) {
		t.Fatalf("results at %v Hz, %.3f Gbps; want rates at the supplied %v Hz", res.ClockHz, res.Gbps, cfg.ClockHz)
	}
}
