// Telemetry-plane cost benchmark: the router consults the collector at
// two choke points — one nil guard per cycle in the control hook and one
// per quantum in the crossbar firmware. This benchmark shows the
// disabled plane is free and bounds what arming it costs. scripts/gates
// gates the disabled leg at <1% against the pre-telemetry commit's
// saturated-router benchmark (same benchmark body, same host) and
// records the other legs.
package repro_test

import (
	"testing"

	"repro/internal/router"
	"repro/internal/telemetry"
)

// BenchmarkTelemetryOverhead measures host ns per simulated router cycle
// under full load (the §7.2 peak workload on the reference engine, the
// pre-telemetry baseline's body), in three configurations:
//
//	off     cfg.Metrics == nil: every telemetry hook nil-guarded out
//	on      collector armed (per-quantum sampling + flight recorder)
//	export  snapshot assembly plus all three encoders, per op
//
// "off" is the leg scripts/gates compares against the pre-telemetry
// baseline (<1% is the acceptance bar);
// "on" bounds the armed plane's cost; "export" prices the post-run
// snapshot (it never sits on the simulation's hot path).
func BenchmarkTelemetryOverhead(b *testing.B) {
	bench := func(metrics bool) func(b *testing.B) {
		return func(b *testing.B) {
			rcfg := router.DefaultConfig()
			if metrics {
				rcfg.Metrics = telemetry.New(telemetry.Config{})
			}
			r, srcs := peakRouter(b, rcfg)
			r.RunSaturated(5000, srcs) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunSaturated(200, srcs) // 200 simulated cycles per op
			}
			b.ReportMetric(200, "sim-cycles/op")
		}
	}
	b.Run("off", bench(false))
	b.Run("on", bench(true))

	b.Run("export", func(b *testing.B) {
		rcfg := router.DefaultConfig()
		rcfg.Metrics = telemetry.New(telemetry.Config{})
		r, srcs := peakRouter(b, rcfg)
		r.RunSaturated(20_000, srcs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := r.Cycle().TelemetrySnapshot()
			for _, format := range telemetry.Formats() {
				if _, err := snap.Encode(format); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
