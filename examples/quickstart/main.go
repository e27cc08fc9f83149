// Quickstart: build the 4-port Raw router, saturate it with the paper's
// peak workload, and print the headline numbers (§7.2: 3.3 Mpps,
// 26.9 Gbps at 1,024-byte packets on a 250 MHz chip).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/traffic"
)

func main() {
	r, err := core.New(router.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Conflict-free permutation traffic: every input sends 1,024-byte
	// packets to a distinct output — the peak-rate workload of §7.2.
	srcs, err := traffic.MustBuild(traffic.Spec{Pattern: "permutation", Size: 1024}).Sources()
	if err != nil {
		log.Fatal(err)
	}

	res := r.RunMeasured(40_000 /* warmup */, 100_000 /* measured */, srcs)

	fmt.Printf("simulated %d cycles at %.0f MHz\n", res.Cycles, res.ClockHz/1e6)
	fmt.Printf("delivered %d packets = %.2f Mpps, %.2f Gbps\n",
		res.Packets, res.Mpps, res.Gbps)
	fmt.Printf("paper (§7.2): 3.3 Mpps, 26.9 Gbps\n")
}
