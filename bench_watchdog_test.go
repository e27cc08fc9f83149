// Watchdog cost benchmark: the per-cycle recovery dispatcher (watchdog
// heartbeat check, scheduled controls, restore drain, reprobe timers)
// runs from the chip's cycle hook on every cycle. The healthy path is
// two-phase: a masked gate fires every 1024 cycles and reads only the
// four quantum counters; heartbeats are snapshotted only after a stall
// is already suspected. The <1% bar versus a router with the watchdog
// off was checked when the watchdog landed; scripts/gates records the
// legs without gating them.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/router"
)

// BenchmarkWatchdogOverhead measures host ns per simulated router cycle
// under full load, exactly like BenchmarkFaultHookOverhead's legs, in
// three configurations:
//
//	off       watchdog disabled (the cycle hook still runs the
//	          recovery dispatcher — this is the base cost)
//	watchdog  watchdog enabled, fabric healthy the whole run
//	recovery  watchdog + auto-restore + line reprobe timers armed,
//	          fabric healthy the whole run (every optional branch of
//	          the dispatcher present but idle)
//
// "watchdog" vs "off" carried the acceptance bar (<1%): a healthy
// fabric must not pay for the stall detector.
func BenchmarkWatchdogOverhead(b *testing.B) {
	bench := func(mut func(*router.Config)) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := router.DefaultConfig()
			mut(&cfg)
			r, err := core.New(core.Options{RouterConfig: &cfg})
			if err != nil {
				b.Fatal(err)
			}
			gen := core.PermutationTraffic(1024, 1)
			r.RunSaturated(5000, gen) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunSaturated(200, gen) // 200 simulated cycles per op
			}
			b.ReportMetric(200, "sim-cycles/op")
		}
	}
	b.Run("off", bench(func(cfg *router.Config) {}))
	b.Run("watchdog", bench(func(cfg *router.Config) {
		cfg.Watchdog = true
	}))
	b.Run("recovery", bench(func(cfg *router.Config) {
		cfg.Watchdog = true
		cfg.AutoRestore = true
		cfg.UnderrunQuanta = 64
		cfg.ReprobeQuanta = 64
	}))
}
