// Traffic-plane cost benchmark: the open-loop arrival front-end runs on
// the host alongside the simulated router, so generating arrivals must
// be effectively free next to stepping the chip. scripts/gates compares
// arrival generation for one 1,024-cycle slice of the heavy-tailed
// flows workload against the reference engine stepping the same 1,024
// simulated cycles and enforces the <1% generation-overhead bar.
package repro_test

import (
	"testing"

	"repro/internal/router"
	"repro/internal/traffic"
)

// BenchmarkTrafficPlane measures the two sides of the open-loop
// arrival pipeline over the same 1,024 simulated cycles per op:
//
//	gen   one Process.Slice call on the heavy-tailed flows workload
//	      (bounded-Pareto sizes, Zipf destinations) — pure host work,
//	      no simulation
//	step  the reference-engine router stepping 1,024 cycles under
//	      saturated permutation traffic — the cost arrivals ride on
//
// The traffic-gen gate in scripts/gates scores the paired ratio
// gen/step and requires it under 1%: trace-driven replay may not
// meaningfully slow the simulation it feeds.
func BenchmarkTrafficPlane(b *testing.B) {
	const sliceCycles = 1024

	b.Run("gen", func(b *testing.B) {
		w, err := traffic.Build(traffic.Spec{
			Pattern: "flows", Seed: 42, Rate: 0.8,
			Sizes: []int{64, 576, 1500}, Weights: []float64{7, 4, 1},
			Params: map[string]float64{"zipf": 1.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		proc, err := w.OpenLoop(sliceCycles)
		if err != nil {
			b.Fatal(err)
		}
		var arrivals int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arrivals += len(proc.Slice(int64(i) % 4096))
		}
		b.ReportMetric(sliceCycles, "sim-cycles/op")
		b.ReportMetric(float64(arrivals)/float64(b.N), "arrivals/op")
	})

	b.Run("step", func(b *testing.B) {
		r, srcs := peakRouter(b, router.DefaultConfig())
		r.RunSaturated(5000, srcs) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunSaturated(sliceCycles, srcs)
		}
		b.ReportMetric(sliceCycles, "sim-cycles/op")
	})
}
