// BenchmarkEngine compares the reference interpreter (EngineRef) against
// the compiled fast engine (EngineFast) on identical workloads. Both
// engines are bit-for-bit identical in simulation output (the equivalence
// suites in internal/raw and internal/fault enforce it), so every delta
// here is pure host speed. The gate runner (scripts/gates) runs these
// legs in paired rounds and gates both the steady-state speedup and the
// full-router speedup, with a macro-engagement check on the router's
// fast leg.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// peakRouter builds a closed-loop router from cfg and the §7.2 peak
// workload's sources: 1,024-byte packets on the conflict-free rotation
// i -> i+1.
func peakRouter(b *testing.B, cfg router.Config) (*core.Router, []traffic.Source) {
	b.Helper()
	r, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srcs, err := traffic.MustBuild(traffic.Spec{Pattern: "permutation", Size: 1024,
		Params: map[string]float64{"offset": 1}}).Sources()
	if err != nil {
		b.Fatal(err)
	}
	return r, srcs
}

// streamEngineChip programs every tile of a 4x4 chip as a west->east
// streaming pipeline: one-instruction SwJump self-loops, processors idle
// — the steady state the fast engine's macro-step targets.
func streamEngineChip(b *testing.B, eng raw.Engine) *raw.Chip {
	b.Helper()
	cfg := raw.DefaultConfig()
	cfg.Engine = eng
	chip := raw.NewChip(cfg)
	for t := 0; t < chip.NumTiles(); t++ {
		prog := []raw.SwInstr{{Op: raw.SwJump, Arg: 0,
			Routes: []raw.Route{{Dst: raw.DirE, Src: raw.DirW}}}}
		if err := chip.Tile(t).SetSwitchProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
	return chip
}

func BenchmarkEngine(b *testing.B) {
	// stream1024B: each op pushes one 1,024-byte packet (256 words) into
	// every row's west edge and runs 300 cycles — enough to stream the
	// packet across the chip and out the east edge. The chip sits in the
	// SwJump self-loop steady state, so the fast engine's macro-step can
	// collapse the run while the reference engine interprets every cycle.
	stream := func(eng raw.Engine) func(*testing.B) {
		return func(b *testing.B) {
			chip := streamEngineChip(b, eng)
			width, height := 4, 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for y := 0; y < height; y++ {
					in := chip.StaticIn(chip.TileAt(0, y).ID(), raw.DirW)
					for w := 0; w < 256; w++ {
						in.Push(raw.Word(i*256 + w))
					}
				}
				chip.Run(300)
				for y := 0; y < height; y++ {
					words, _ := chip.StaticOut(chip.TileAt(width-1, y).ID(), raw.DirE).Drain()
					if len(words) != 256 {
						b.Fatalf("row %d: drained %d words, want 256", y, len(words))
					}
				}
			}
			b.StopTimer()
			_, macroCycles := chip.MacroStats()
			b.ReportMetric(300, "sim-cycles/op")
			b.ReportMetric(float64(macroCycles)/float64(b.N), "macro-cycles/op")
		}
	}
	// router1024B: the full Figure 7-2 router under saturated 1,024-byte
	// permutation traffic. The router registers as a step hook with
	// NextDue bounds (quantum boundaries commit inside busy crossbar ops;
	// watchdog and scan masks are declared due cycles), so the fast
	// engine macro-steps the firmware's steady streaming phases between
	// boundaries: this leg measures compiled dispatch plus macro windows
	// on the live router. The macro-cycles/op metric reports how many of
	// the 200 simulated cycles per op were covered by macro windows
	// (always 0 on the ref leg); the engine-router gate requires it to
	// be non-zero on the fast leg.
	router := func(eng raw.Engine) func(*testing.B) {
		return func(b *testing.B) {
			cfg := router.DefaultConfig()
			cfg.Engine = eng
			r, srcs := peakRouter(b, cfg)
			r.RunSaturated(5000, srcs) // warm
			chip := r.Cycle().Chip
			_, warmCycles := chip.MacroStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunSaturated(200, srcs)
			}
			b.StopTimer()
			_, macroCycles := chip.MacroStats()
			b.ReportMetric(200, "sim-cycles/op")
			b.ReportMetric(float64(macroCycles-warmCycles)/float64(b.N), "macro-cycles/op")
		}
	}
	b.Run("stream1024B/engine=ref", stream(raw.EngineRef))
	b.Run("stream1024B/engine=fast", stream(raw.EngineFast))
	b.Run("router1024B/engine=ref", router(raw.EngineRef))
	b.Run("router1024B/engine=fast", router(raw.EngineFast))
}
