// Edgerouter: a realistic 4-port edge router session on the cycle-level
// engine — a BGP-sized synthetic prefix table in simulated DRAM, a mixed
// packet-size workload with bursty flows and a hotspot, end-to-end packet
// validation (checksums, TTLs), and per-port accounting.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lookup"
	"repro/internal/router"
	"repro/internal/traffic"
)

func main() {
	// A route table with a default route, the four port /8s, and a few
	// thousand random longer prefixes spread across the ports.
	table := router.CanonicalTable()
	rng := traffic.NewRNG(2026)
	if err := table.Insert(0, 0, 0); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		plen := 9 + rng.Intn(16)
		if err := table.Insert(uint32(rng.Uint64()), plen, lookup.NextHop(rng.Intn(4))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("installed %d routes\n", table.Len())

	cfg := router.DefaultConfig()
	cfg.Table = table
	r, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Mixed workload: bursty flows, a size mix, 30% of traffic piling on
	// port 2 (a busy uplink).
	wl := traffic.MustBuild(traffic.Spec{
		Pattern: "bursty",
		Ports:   4,
		Size:    64,
		Seed:    2026,
		Sizes:   []int{64, 256, 1024},
		Weights: []float64{0.5, 0.3, 0.2},
		Params:  map[string]float64{"burst": 8},
	})
	srcs, err := wl.Sources()
	if err != nil {
		log.Fatal(err)
	}
	hot := traffic.NewRNG(7)
	for p, src := range srcs {
		srcs[p] = hotspot{Source: src, rng: hot}
	}

	res := r.RunMeasured(60_000, 200_000, srcs)

	fmt.Printf("\nmeasured %d cycles (%.2f ms of router time at 250 MHz)\n",
		res.Cycles, 1e3*float64(res.Cycles)/res.ClockHz)
	fmt.Printf("forwarded %d packets: %.2f Gbps, %.2f Mpps\n", res.Packets, res.Gbps, res.Mpps)
	fmt.Printf("per-egress packets: %v (port 2 is the hotspot)\n", res.PerPort)
	fmt.Printf("arbitration denials (head-of-line waits): %d\n", res.Denied)

	// Pull some delivered packets off the pins and verify them like a
	// downstream device would.
	cyc := r.Cycle()
	verified := 0
	for p := 0; p < 4; p++ {
		pkts, err := cyc.DrainOutput(p)
		if err != nil {
			log.Fatalf("output %d: %v", p, err)
		}
		for _, pkt := range pkts {
			if pkt.Header.TTL == 0 {
				log.Fatalf("output %d: TTL zero escaped", p)
			}
			verified++
		}
	}
	fmt.Printf("drained and checksum-verified %d packets at the output pins\n", verified)
}

// hotspot sends 30% of its source's packets to port 2. It keeps only
// each packet's port and size: core.Router.Offer then scatters the
// addresses across the ports' /8s, where the bursty source's sequential
// ones would all fall inside a few of the random prefixes.
type hotspot struct {
	traffic.Source
	rng *traffic.RNG
}

// Next implements traffic.Source.
func (h hotspot) Next() traffic.Pkt {
	pkt := h.Source.Next()
	dst := pkt.Dst
	if h.rng.Float64() < 0.3 {
		dst = 2
	}
	return traffic.Pkt{Dst: dst, SizeBytes: pkt.SizeBytes}
}
