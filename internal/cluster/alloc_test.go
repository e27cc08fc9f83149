package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// TestConstructionAllocBound bounds the heap one build allocates. DRAM
// pages are allocated at their first write and tile data caches at
// their first access, so a build pays for the table image and the
// chip's queues, not for a per-word DRAM map or 16 zeroed caches.
func TestConstructionAllocBound(t *testing.T) {
	const mb = 1 << 20
	cases := []struct {
		name  string
		limit uint64
		build func() error
	}{
		{"router.New", 3 * mb / 2, func() error {
			_, err := router.New(router.DefaultConfig())
			return err
		}},
		{"cluster.NewFabric(Mesh(4,4))", 24 * mb, func() error {
			_, err := cluster.NewFabric(cluster.Config{Topology: cluster.Mesh(4, 4)})
			return err
		}},
	}
	for _, c := range cases {
		// The warm-up build fills the package-level caches (the shared
		// crossbar index, compiled programs) that later builds reuse.
		if err := c.build(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocated %.2f MB", c.name, float64(got)/mb)
		if got > c.limit {
			t.Errorf("%s allocated %.2f MB, limit %.2f MB", c.name, float64(got)/mb, float64(c.limit)/mb)
		}
	}
}

// TestSteadyStateAllocBound bounds the heap allocations of saturated
// fast-engine cycles: at 64 B uniform, where per-packet firmware runs on
// every port, and at 1,024 B permutation, where macro windows cover most
// cycles. Micro-ops carry their operands as values and move words
// between queues and firmware-owned words, so what remains is the
// packets offered and the Then continuations (about 5,800 and 1,900
// mallocs per 10,000 cycles). A closure per received or sent word (about
// 12,600 and 4,000) exceeds the limits. The loop never drains its
// outputs, so the output sinks' growth is most of the bytes (about
// 272,000 and 1,118,000 per 10,000 cycles): an 8-byte exit stamp per
// sunk word instead of one per run of consecutive cycles (about 445,000
// and 2,724,000) exceeds the byte limits.
func TestSteadyStateAllocBound(t *testing.T) {
	const cycles = 100_000
	cases := []struct {
		spec  traffic.Spec
		limit uint64 // mallocs per 10,000 cycles
		bytes uint64 // bytes per 10,000 cycles
	}{
		{traffic.Spec{Pattern: "uniform", Size: 64, Seed: 1}, 7_000, 285_000},
		{traffic.Spec{Pattern: "permutation", Size: 1024, Seed: 1}, 2_500, 1_175_000},
	}
	for _, c := range cases {
		cfg := router.DefaultConfig()
		cfg.Engine = raw.EngineFast
		r, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs, err := traffic.MustBuild(c.spec).Sources()
		if err != nil {
			t.Fatal(err)
		}
		r.RunSaturated(40_000, srcs) // warm the lookup caches and queues
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.RunSaturated(cycles, srcs)
		runtime.ReadMemStats(&after)
		got := (after.Mallocs - before.Mallocs) * 10_000 / cycles
		bytes := (after.TotalAlloc - before.TotalAlloc) * 10_000 / cycles
		t.Logf("%s %d B: %d mallocs, %d bytes per 10,000 cycles", c.spec.Pattern, c.spec.Size, got, bytes)
		if got > c.limit {
			t.Errorf("%s %d B: %d mallocs per 10,000 saturated cycles, limit %d",
				c.spec.Pattern, c.spec.Size, got, c.limit)
		}
		if bytes > c.bytes {
			t.Errorf("%s %d B: %d bytes allocated per 10,000 saturated cycles, limit %d",
				c.spec.Pattern, c.spec.Size, bytes, c.bytes)
		}
	}
}
