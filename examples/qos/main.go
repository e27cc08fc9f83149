// QoS: the §8.7 extension — weighted round-robin token dwell gives a
// premium port a proportionally larger share of a congested egress. Runs
// on the quantum-level Rotating Crossbar model and sweeps weight ratios.
package main

import (
	"fmt"

	"repro/internal/rotor"
	"repro/internal/stats"
)

func main() {
	fmt.Println("All four inputs flood output 2; input 0 is the premium customer.")
	tb := stats.Table{
		Caption: "weighted-token QoS (§8.7): share of the contended egress",
		Headers: []string{"weight of port 0", "port0", "port1", "port2", "port3"},
	}
	for _, w := range []int{1, 2, 3, 5} {
		cfg := rotor.DefaultFabricConfig()
		cfg.Weights = []int{w, 1, 1, 1}
		f := rotor.NewFabric(cfg)
		for f.Cycles < 1_100_000 {
			for p := 0; p < 4; p++ {
				for f.QueueLen(p) < 4 {
					f.Offer(p, 2, 64) // 256-byte packets
				}
			}
			f.StepQuantum()
		}
		var total int64
		for p := 0; p < 4; p++ {
			total += f.GrantsPerInput[p]
		}
		shares := []any{w}
		for p := 0; p < 4; p++ {
			shares = append(shares, float64(f.GrantsPerInput[p])/float64(total))
		}
		tb.AddRow(shares...)
	}
	fmt.Println(tb.String())
	fmt.Println("A weight of w gives the premium port ≈ w/(w+3) of the output.")
}
