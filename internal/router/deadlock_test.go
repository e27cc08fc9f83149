package router_test

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/traffic"
)

// TestNoDeadlockExhaustive (experiment E10, §5.5): for every destination
// vector — all 5⁴ = 625 combinations of {no packet, to port 0..3} across
// the four inputs, including full output conflicts — the cycle-level
// router delivers every offered packet through the generated switch
// programs within a bounded number of cycles. This is the end-to-end
// form of the paper's deadlock-freedom claim: not just that the
// allocation is conflict-free (rotor's exhaustive test), but that the
// software-pipelined switch code executing it never wedges the static
// network.
func TestNoDeadlockExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	for vec := 0; vec < 625; vec++ {
		dsts := [4]int{}
		v := vec
		offered := 0
		for p := 0; p < 4; p++ {
			dsts[p] = v%5 - 1 // -1 = no packet
			v /= 5
			if dsts[p] >= 0 {
				offered++
			}
		}
		if offered == 0 {
			continue
		}
		r := mustNew(t, router.DefaultConfig())
		for p := 0; p < 4; p++ {
			if dsts[p] < 0 {
				continue
			}
			pkt := ip.NewPacket(traffic.PortAddr(p, 1), traffic.PortAddr(dsts[p], 2), 64, 128, uint16(vec))
			r.OfferPacket(p, &pkt)
		}
		ok := r.Chip.RunUntil(func() bool {
			return int(r.TotalPktsOut()) >= offered
		}, 30000)
		if !ok {
			t.Fatalf("vector %v: only %d of %d packets delivered (deadlock or livelock)",
				dsts, r.TotalPktsOut(), offered)
		}
		// Every packet must land on the egress its header named.
		for p := 0; p < 4; p++ {
			want := int64(0)
			for q := 0; q < 4; q++ {
				if dsts[q] == p {
					want++
				}
			}
			if r.Stats().PktsOut[p] != want {
				t.Fatalf("vector %v: egress %d got %d packets, want %d",
					dsts, p, r.Stats().PktsOut[p], want)
			}
		}
	}
}
