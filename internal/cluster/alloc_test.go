package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/router"
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
