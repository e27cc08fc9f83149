package router

import (
	"fmt"
	"testing"

	"repro/internal/ip"
	"repro/internal/traffic"
)

// TestRuntimeAllocationInvariants steps random saturated runs to every
// quantum boundary and verifies that what a live crossbar's firmware
// executed is a legal allocation — the fabric-vs-cycle agreement check of
// DESIGN.md (both levels call the same rotor allocators; this confirms
// the firmware's inputs and dispatch are faithful). It audits every
// unicast branch of the one decide: the healthy ring, the degraded ring
// with each port dead, and the probation window after a restore.
func TestRuntimeAllocationInvariants(t *testing.T) {
	rng := traffic.NewRNG(23)
	id := uint16(0)
	feed := func(r *Router) {
		for p := 0; p < 4; p++ {
			for r.InputBacklogWords(p) < 4096 {
				id++
				pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(rng.Intn(4), uint32(id)), 64, 256, id)
				r.OfferPacket(p, &pkt)
			}
		}
	}
	// audit steps r to each of its report crossbar's quantum boundaries
	// while on(x) holds before the quantum (at most 200), checks the
	// allocation the quantum executed, and returns how many it checked.
	audit := func(r *Router, name string, on func(x *xbarFW) bool) int {
		x := r.xbars[r.reportPort]
		n := 0
		for ; n < 200 && on(x); n++ {
			q := x.quantum
			feed(r)
			if !r.Chip.RunUntil(func() bool { return x.quantum > q }, 20000) {
				t.Fatalf("%s: quantum %d never completed", name, q+1)
			}
			a := x.alloc
			var seen [4]bool
			for _, tr := range a.Transfers {
				if seen[tr.Dst] {
					t.Fatalf("%s, quantum %d: output %d granted twice", name, x.quantum, tr.Dst)
				}
				seen[tr.Dst] = true
				if tr.Hops < 0 || tr.Hops > 3 {
					t.Fatalf("%s, quantum %d: impossible hop count %d", name, x.quantum, tr.Hops)
				}
			}
			for i, tile := range a.Tiles {
				if tile.InBlocked && a.Granted[i] {
					t.Fatalf("%s, quantum %d: tile %d both granted and blocked", name, x.quantum, i)
				}
			}
		}
		return n
	}
	build := func() *Router {
		r, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	healthy := func(x *xbarFW) bool { return x.dead < 0 && x.readmit == 0 }
	if n := audit(build(), "healthy", healthy); n < 200 {
		t.Fatalf("healthy: audited %d quanta, want 200", n)
	}
	for dead := 0; dead < 4; dead++ {
		name := fmt.Sprintf("port %d dead", dead)
		r := build()
		if err := r.Degrade(dead); err != nil {
			t.Fatal(err)
		}
		if n := audit(r, name, func(x *xbarFW) bool { return x.dead == dead }); n < 200 {
			t.Fatalf("%s: audited %d quanta, want 200", name, n)
		}
		if err := r.Restore(dead); err != nil {
			t.Fatal(err)
		}
		if !r.Chip.RunUntil(func() bool { return r.ProbationPort() == dead }, 200000) {
			t.Fatalf("%s: restore never re-admitted the port", name)
		}
		probation := func(x *xbarFW) bool { return x.dead < 0 && x.readmit > 0 }
		if n := audit(r, name+", probation", probation); n != r.readmitQuanta {
			t.Fatalf("%s: audited %d probation quanta, want %d", name, n, r.readmitQuanta)
		}
	}
}
