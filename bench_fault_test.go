// Fault-plane cost benchmark: the chip consults the installed
// raw.FaultPlane at a handful of per-cycle choke points, each behind a
// nil guard. This benchmark shows the guards are free in the common
// case. The <1% bar against the pre-hook commit (same benchmark body,
// same host) was gated when the hooks landed; scripts/gates now records
// the legs without gating them.
package repro_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// BenchmarkFaultHookOverhead measures host ns per simulated router cycle
// under full load, exactly like BenchmarkSimulatorCyclesPerSecond, in
// three configurations:
//
//	none            no fault plane installed (every hook nil-guarded out)
//	empty-schedule  an Injector with zero events installed
//	active          a live schedule (stall windows + DRAM spikes) in force
//
// "none" is the nil-guard cost (<1% versus the pre-hook commit is the
// acceptance bar); the other legs bound what enabling injection costs.
func BenchmarkFaultHookOverhead(b *testing.B) {
	bench := func(sched *fault.Schedule) func(b *testing.B) {
		return func(b *testing.B) {
			r, err := core.New(core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if sched != nil {
				r.Cycle().Chip.InstallFaults(fault.NewInjector(sched, 16))
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
	b.Run("none", bench(nil))
	b.Run("empty-schedule", bench(&fault.Schedule{}))
	b.Run("active", bench(fault.MustParse(
		"link@100000+2000:t5.e;flap@200000+500x4:t9.n;dram@0+100000000:+20")))
}

// BenchmarkHealOverhead measures what arming the fabric healing plane
// costs a healthy run: host ns per 200 simulated fabric cycles on a
// ring-4 under saturated antipodal traffic, healing off versus healing
// armed with no faults ever firing ("idle": flow stamping at ingress,
// the egress dup filter, and the empty-ARQ check per slice are the only
// live code). scripts/gates interleaves the two legs and gates idle/off
// at <1% — fault tolerance must be free until a fault happens.
func BenchmarkHealOverhead(b *testing.B) {
	bench := func(heal bool) func(b *testing.B) {
		return func(b *testing.B) {
			spec := cluster.Ring(4)
			cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig()}
			cfg.Router.Engine = raw.EngineFast
			if heal {
				cfg.Heal = cluster.HealConfig{Enabled: true}
			}
			f, err := cluster.NewFabric(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ext := spec.Externals()
			id := uint16(0)
			round := func() {
				for e := 0; e < ext; e++ {
					for tries := 0; f.InputBacklogWords(e) < 4096 && tries < 64; tries++ {
						id++
						dst := (e + ext/2) % ext
						pkt := ip.NewPacket(traffic.PortAddr(e, uint32(id)),
							traffic.PortAddr(dst, uint32(id)), 64, 1024, id)
						f.OfferPacket(e, &pkt)
					}
				}
				f.Run(200)
				for e := 0; e < ext; e++ {
					if _, err := f.DrainOutput(e); err != nil {
						b.Fatal(err)
					}
				}
			}
			for i := 0; i < 25; i++ { // warm: fill the fabric to steady state
				round()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(200, "sim-cycles/op")
		}
	}
	b.Run("off", bench(false))
	b.Run("idle", bench(true))
}
