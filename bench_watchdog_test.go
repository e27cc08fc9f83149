// Watchdog cost benchmark: the per-cycle recovery dispatcher (watchdog
// heartbeat check, scheduled controls, restore drain, reprobe timers)
// runs from the router's step hook, which declares its due cycles so
// the fast engine macro-steps between them. The healthy path is
// two-phase: a masked gate fires every 1024 cycles and reads only the
// four quantum counters; heartbeats are snapshotted only after a stall
// is already suspected. The <1% bar versus a router with the watchdog
// off was checked when the watchdog landed; scripts/gates records the
// legs without gating them.
package repro_test

import (
	"testing"

	"repro/internal/raw"
	"repro/internal/router"
)

// BenchmarkWatchdogOverhead measures host ns per simulated router cycle
// on the fast engine, exactly like BenchmarkFaultHookOverhead's legs, in
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
			cfg.Engine = raw.EngineFast
			mut(&cfg)
			r, srcs := peakRouter(b, cfg)
			benchPeak(b, r, srcs)
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
