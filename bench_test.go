// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Chapter 7), per quantitative design-chapter claim (Chapters
// 2, 3, 5, 6), and per Chapter 8 extension. Each benchmark prints its
// regenerated table once and reports the headline quantities as benchmark
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end. EXPERIMENTS.md records
// paper-vs-measured values captured from these benchmarks at -full
// quality (see cmd/fabsim, cmd/rawrouter, cmd/tileviz for the long runs).
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/lookup"
	"repro/internal/raw"
	"repro/internal/raw/asm"
	"repro/internal/rotor"
	"repro/internal/traffic"
)

// printOnce prints a regenerated artifact the first time its benchmark
// runs, keeping repeated benchmark iterations quiet.
var printed sync.Map

func printOnce(key, text string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// BenchmarkFigure7_1_Peak regenerates Figure 7-1 (top): peak throughput of
// the cycle-level router vs packet size, with the Click baseline bar.
// Paper series: 7.3 / 14.4 / 20.1 / 24.7 / 26.9 Gbps; Click 0.23.
func BenchmarkFigure7_1_Peak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, clickGbps, tb := exp.Figure71(exp.Quick, false)
		printOnce("fig71peak", tb.String())
		b.ReportMetric(pts[len(pts)-1].Gbps, "Gbps@1024B")
		b.ReportMetric(pts[0].Gbps, "Gbps@64B")
		b.ReportMetric(clickGbps, "click-Gbps")
	}
}

// BenchmarkFigure7_1_Average regenerates Figure 7-1 (bottom): uniform
// random destinations. Paper series: 5.0 / 9.9 / 13.8 / 16.9 / 18.6 Gbps
// (≈69 % of peak).
func BenchmarkFigure7_1_Average(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, tb := exp.Figure71(exp.Quick, true)
		printOnce("fig71avg", tb.String())
		b.ReportMetric(pts[len(pts)-1].Gbps, "Gbps@1024B")
		b.ReportMetric(pts[0].Gbps, "Gbps@64B")
	}
}

// BenchmarkFigure7_3_Utilization regenerates the per-tile utilization
// strips for 64- and 1,024-byte packets over an 800-cycle window.
func BenchmarkFigure7_3_Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, large, render := exp.Figure73(exp.Quick)
		printOnce("fig73", render)
		var s, l float64
		for tile := 0; tile < 16; tile++ {
			s += small.Utilization(tile) / 16
			l += large.Utilization(tile) / 16
		}
		b.ReportMetric(s, "util@64B")
		b.ReportMetric(l, "util@1024B")
	}
}

// BenchmarkTable6_1_ConfigSpace regenerates the §6.1/§6.2 configuration
// space numbers: 2,500 global configurations, ≈3.3 instruction words per
// unminimized configuration, and the minimized per-tile subset (paper:
// 32 entries at 78x; this reconstruction: 27 at 93x).
func BenchmarkTable6_1_ConfigSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.ConfigSpace()
		printOnce("table61", exp.ConfigSpaceTable().String())
		b.ReportMetric(float64(r.Space), "configs")
		b.ReportMetric(float64(r.Minimized), "minimized")
		b.ReportMetric(r.Reduction, "reduction-x")
	}
}

// BenchmarkFigure3_2_StaticNetworkHop measures the ISA-level tile-to-tile
// send of Figure 3-2 on the asm interpreter: 5 cycles end to end.
func BenchmarkFigure3_2_StaticNetworkHop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chip := raw.NewChip(raw.DefaultConfig())
		_ = chip.Tile(0).SetSwitchProgram(asm.MustAssembleSwitch("route $csto->$cSo\nhalt"))
		_ = chip.Tile(4).SetSwitchProgram(asm.MustAssembleSwitch("route $cNi->$csti\nhalt"))
		sender := asm.MustLoad(chip.Tile(0), "or $csto, $0, $5\nhalt")
		sender.SetReg(5, 42)
		recv := asm.MustLoad(chip.Tile(4), "and $5, $5, $csti\nhalt")
		cycles := int64(0)
		for c := int64(0); c < 20; c++ {
			chip.Step()
			if recv.Retired >= 1 {
				cycles = chip.Cycle()
				break
			}
		}
		printOnce("fig32", fmt.Sprintf("# Figure 3-2: tile-to-tile send South executes in %d cycles (paper: 5)\n", cycles))
		b.ReportMetric(float64(cycles), "cycles")
	}
}

// BenchmarkFigure5_1_Allocation measures the distributed allocation walk
// itself — the per-quantum work every crossbar processor repeats.
func BenchmarkFigure5_1_Allocation(b *testing.B) {
	g := rotor.GlobalConfig{
		Hdrs:  []rotor.Hdr{rotor.HdrTo(2), rotor.HdrTo(3), rotor.HdrTo(0), rotor.HdrTo(1)},
		Token: 0,
	}
	b.ResetTimer()
	granted := 0
	for i := 0; i < b.N; i++ {
		g.Token = i % 4
		a := rotor.Allocate(g)
		granted += len(a.Transfers)
	}
	if granted != 4*b.N {
		b.Fatalf("Figure 5-1 pattern should always grant all four")
	}
}

// BenchmarkSection5_3_SecondNetworkAblation: adding the second static
// network does not raise throughput (output contention binds).
func BenchmarkSection5_3_SecondNetworkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one, two, tb := exp.SecondNetworkAblation(exp.Quick)
		printOnce("sec53", tb.String())
		b.ReportMetric(one, "Gbps-1net")
		b.ReportMetric(two, "Gbps-2net")
	}
}

// BenchmarkSection5_4_Fairness: grant shares under an all-to-one flood.
func BenchmarkSection5_4_Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shares, tb := exp.Fairness(exp.Quick)
		printOnce("sec54", tb.String())
		min, max := shares[0], shares[0]
		for _, s := range shares {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		b.ReportMetric(max-min, "share-spread")
	}
}

// BenchmarkBackground_HOLvsVOQ regenerates the §2.2.2 claims: FIFO input
// queueing saturates near 58.6 %, VOQ+iSLIP near 100 %.
func BenchmarkBackground_HOLvsVOQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fifo, voq, _, tb := exp.HOLvsVOQ(exp.Quick)
		printOnce("holvoq", tb.String())
		b.ReportMetric(fifo, "fifo-throughput")
		b.ReportMetric(voq, "voq-throughput")
	}
}

// BenchmarkBackground_CellsVsVariable regenerates the fixed-cell claim:
// variable-length scheduling limits throughput to ≈60 %.
func BenchmarkBackground_CellsVsVariable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, varlen, tb := exp.CellsVsVariable(exp.Quick)
		printOnce("cells", tb.String())
		b.ReportMetric(cells, "cells-throughput")
		b.ReportMetric(varlen, "varlen-throughput")
	}
}

// BenchmarkHeadline checks §7.2's headline: ≈3.3 Mpps / ≈26.9 Gbps at
// 1,024-byte packets.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mpps, gbps := exp.Headline(exp.Quick)
		printOnce("headline", fmt.Sprintf("# §7.2 headline: %.2f Mpps, %.2f Gbps at 1024B peak (paper: 3.3 Mpps, 26.9 Gbps)\n", mpps, gbps))
		b.ReportMetric(mpps, "Mpps")
		b.ReportMetric(gbps, "Gbps")
	}
}

// BenchmarkExtension_QoS regenerates the §8.7 weighted-token study.
func BenchmarkExtension_QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shares, tb := exp.QoS(exp.Quick)
		printOnce("qos", tb.String())
		b.ReportMetric(shares[0], "premium-share")
	}
}

// BenchmarkExtension_Multicast regenerates the §8.6 fanout-splitting
// study.
func BenchmarkExtension_Multicast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		copies, fanout, tb := exp.Multicast(exp.Quick)
		printOnce("mcast", tb.String())
		b.ReportMetric(fanout/copies, "amplification")
	}
}

// BenchmarkExtension_Scale8 regenerates the §8.5 ring-scaling study.
func BenchmarkExtension_Scale8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.Scale8(exp.Quick)
		printOnce("scale8", tb.String())
	}
}

// BenchmarkLookupPatricia / BenchmarkLookupCompact measure the §8.2 route
// lookup substrate per operation.
func benchLookupTable() (*lookup.Patricia, *lookup.CompactTable, []uint32) {
	var t lookup.Patricia
	rng := traffic.NewRNG(99)
	_ = t.Insert(0, 0, 0)
	for i := 0; i < 5000; i++ {
		_ = t.Insert(uint32(rng.Uint64()), 8+rng.Intn(17), lookup.NextHop(rng.Intn(4)))
	}
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
	}
	return &t, lookup.NewCompactTable(&t), addrs
}

func BenchmarkLookupPatricia(b *testing.B) {
	t, _, addrs := benchLookupTable()
	b.ResetTimer()
	var sink lookup.NextHop
	for i := 0; i < b.N; i++ {
		nh, _ := t.Lookup(addrs[i%len(addrs)])
		sink = nh
	}
	_ = sink
}

func BenchmarkLookupCompact(b *testing.B) {
	_, c, addrs := benchLookupTable()
	b.ResetTimer()
	var sink lookup.NextHop
	for i := 0; i < b.N; i++ {
		nh, _ := c.Lookup(addrs[i%len(addrs)])
		sink = nh
	}
	_ = sink
}

// BenchmarkSimulatorCyclesPerSecond measures the substrate itself: host
// nanoseconds per simulated router cycle under full load (all 16 tiles,
// both networks, caches active) on the reference engine.
func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	r, err := core.New(core.Options{})
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

// BenchmarkDelayVsLoad regenerates the latency-vs-offered-load curve of
// the Rotating Crossbar fabric.
func BenchmarkDelayVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.DelayVsLoad(exp.Quick)
		printOnce("delayload", tb.String())
	}
}

// BenchmarkBackground_McastCells regenerates the §2.2.2 cell-level
// multicast claim (fanout-splitting vs atomic service).
func BenchmarkBackground_McastCells(b *testing.B) {
	for i := 0; i < b.N; i++ {
		atomic, splitting, _, tb := exp.McastCells(exp.Quick)
		printOnce("mcastcells", tb.String())
		b.ReportMetric(splitting/atomic, "splitting-gain")
	}
}

// BenchmarkExtension_McastCycle regenerates the cycle-level §8.6 study:
// fanout-splitting amplification through the real router.
func BenchmarkExtension_McastCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		amp, tb := exp.McastCycle(exp.Quick)
		printOnce("mcastcycle", tb.String())
		b.ReportMetric(amp, "amplification")
	}
}

// BenchmarkBackground_ISLIPIterations sweeps the iSLIP iteration count.
func BenchmarkBackground_ISLIPIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.ISLIPIterations(exp.Quick)
		printOnce("islipiters", tb.String())
	}
}

// BenchmarkExtension_ClusterScaling regenerates the §8.5 two-chip
// composition study.
func BenchmarkExtension_ClusterScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.ClusterScaling(exp.Quick)
		printOnce("cluster", tb.String())
	}
}

// BenchmarkExtension_FullUtilization regenerates the §8.1 study: VOQ
// ingress buffers vs the thesis's single FIFO.
func BenchmarkExtension_FullUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fifo, voq, tb := exp.FullUtilization(exp.Quick)
		printOnce("fullutil", tb.String())
		b.ReportMetric(fifo, "fifo-ratio")
		b.ReportMetric(voq, "voq-ratio")
	}
}

// BenchmarkBackground_PIMvsISLIP regenerates the PIM/iSLIP scheduler
// comparison.
func BenchmarkBackground_PIMvsISLIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.PIMvsISLIP(exp.Quick)
		printOnce("pim", tb.String())
	}
}

// BenchmarkCycleLatency measures unloaded pin-to-pin latency.
func BenchmarkCycleLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.CycleLatency(exp.Quick)
		printOnce("cyclelat", tb.String())
	}
}

// BenchmarkAblation_QuantumSize sweeps the crossbar quantum size.
func BenchmarkAblation_QuantumSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.QuantumAblation(exp.Quick)
		printOnce("quantum", tb.String())
	}
}

// BenchmarkControlPlaneConvergence measures RIP convergence vs ring size.
func BenchmarkControlPlaneConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.NetprocConvergence()
		printOnce("netproc", tb.String())
	}
}
