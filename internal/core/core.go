// Package core runs the cycle-level Rotating Crossbar router
// (internal/router) closed-loop: sixteen simulated Raw tiles, generated
// static-switch programs, IP validation and lookup in simulated DRAM.
// It feeds the router's input pins from traffic sources and reports
// throughput over a measured window. Every experiment, example and
// benchmark leg that drives the router runs through it. The
// quantum-stepped model of the same allocation algorithm is rotor.Fabric,
// driven directly.
//
// A minimal session:
//
//	r, _ := core.New(router.DefaultConfig())
//	w := traffic.MustBuild(traffic.Spec{Pattern: "permutation", Size: 1024})
//	srcs, _ := w.Sources()
//	res := r.RunSaturated(100_000, srcs)
//	fmt.Println(res.Gbps, res.Mpps)
package core

import (
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Results summarizes a run.
type Results struct {
	Cycles      int64
	Packets     int64
	Bytes       int64
	Gbps        float64
	Mpps        float64
	PerPort     []int64 // packets delivered per egress
	Denied      int64   // quanta lost to arbitration (offered load shed)
	ClockHz     float64
	Reassembled int64
}

// Router drives one cycle-level router.
type Router struct {
	cyc *router.Router
	id  uint16
}

// New builds a router from the full cycle-level configuration.
func New(cfg router.Config) (*Router, error) {
	cyc, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Router{cyc: cyc}, nil
}

// Cycle returns the underlying cycle-level router. It exposes the full
// instrumented surface (tile traces, chip internals, faults,
// checkpoints) for advanced use.
func (r *Router) Cycle() *router.Router { return r.cyc }

// Offer enqueues one packet at input port p. Zero addresses are
// synthesized inside the source and destination ports' prefixes, the
// destination scattered by the packet's sequence number.
func (r *Router) Offer(p int, pkt traffic.Pkt) {
	if pkt.SizeBytes < ip.HeaderBytes {
		pkt.SizeBytes = ip.HeaderBytes
	}
	r.id++
	src := pkt.SrcIP
	if src == 0 {
		src = traffic.PortAddr(p, uint32(r.id))
	}
	dst := pkt.DstIP
	if dst == 0 {
		dst = traffic.PortAddr(pkt.Dst, uint32(r.id)*2654435761)
	}
	ipPkt := ip.NewPacket(src, dst, 64, pkt.SizeBytes, r.id)
	r.cyc.OfferPacket(p, &ipPkt)
}

// RunSaturated keeps every input with a source at full backlog for the
// given number of cycles and returns throughput results over those
// cycles. srcs[p] feeds input p; a nil source leaves that input idle.
func (r *Router) RunSaturated(cycles int64, srcs []traffic.Source) Results {
	return r.RunMeasured(0, cycles, srcs)
}

// RunMeasured runs warmup cycles first (letting the data caches and the
// packet pipeline reach steady state) and then measures over the next
// measure cycles. All rates in the Results are for the measured window
// only.
func (r *Router) RunMeasured(warmup, measure int64, srcs []traffic.Source) Results {
	r.runFor(warmup, srcs)
	before := r.snap()
	r.runFor(measure, srcs)
	return r.delta(before)
}

type snapshot struct {
	cycles      int64
	pkts        int64
	words       int64
	perPort     []int64
	denied      int64
	reassembled int64
}

func (r *Router) runFor(cycles int64, srcs []traffic.Source) {
	const step = 200
	for c := int64(0); c < cycles; c += step {
		for p, src := range srcs {
			for src != nil && r.cyc.InputBacklogWords(p) < 4096 {
				r.Offer(p, src.Next())
			}
		}
		r.cyc.Run(step)
	}
}

func (r *Router) snap() snapshot {
	s := snapshot{cycles: r.cyc.Cycle(), pkts: r.cyc.TotalPktsOut()}
	for p := 0; p < 4; p++ {
		s.perPort = append(s.perPort, r.cyc.Stats().PktsOut[p])
		s.words += r.cyc.OutputWords(p)
		s.denied += r.cyc.Stats().Denied[p]
		s.reassembled += r.cyc.Stats().Reassembled[p]
	}
	return s
}

func (r *Router) delta(before snapshot) Results {
	now := r.snap()
	cycles := now.cycles - before.cycles
	clock := r.cyc.Config().ClockHz
	res := Results{
		Cycles:      cycles,
		Packets:     now.pkts - before.pkts,
		Bytes:       (now.words - before.words) * 4,
		Gbps:        stats.Gbps((now.words-before.words)*4, cycles, clock),
		Mpps:        stats.Mpps(now.pkts-before.pkts, cycles, clock),
		Denied:      now.denied - before.denied,
		Reassembled: now.reassembled - before.reassembled,
		ClockHz:     clock,
	}
	for p := 0; p < 4; p++ {
		res.PerPort = append(res.PerPort, now.perPort[p]-before.perPort[p])
	}
	return res
}
