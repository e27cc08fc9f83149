package rotor

import (
	"fmt"
	"testing"
)

// checkWalk verifies what every reservation walk must keep, whatever
// its order, pre-claims and requests: each egress is granted at most
// once and each directed ring link claimed at most once; Served stays
// inside the request, and Granted, InBlocked, OutSrc and Transfers all
// agree with it (one transfer per served member, at its ring distance,
// one direction per stream, clockwise for a multicast stream); the dead
// or quarantined egress is never granted and no stream crosses the
// severed tile; and the master — the first requester in the visiting
// order — is served whenever its request has a free member it can reach.
func checkWalk(t testing.TB, reqs []McastReq, token int, prio []uint8, dead, joining int, a Allocation) {
	t.Helper()
	n := len(reqs)
	where := fmt.Sprintf("reqs %v token %d prio %v dead %d joining %d", reqs, token, prio, dead, joining)
	var granted McastReq
	for i, served := range a.Served {
		if served&^reqs[i] != 0 {
			t.Fatalf("%s: input %d served %v outside its request", where, i, served)
		}
		if served&granted != 0 {
			t.Fatalf("%s: egress of %v granted twice", where, served&granted)
		}
		granted |= served
		if a.Granted[i] != (served != 0) {
			t.Fatalf("%s: Granted[%d] = %v, served %v", where, i, a.Granted[i], served)
		}
		if a.Tiles[i].InBlocked != (reqs[i] != 0 && served == 0) {
			t.Fatalf("%s: tile %d blocked flag %v, request %v served %v", where, i, a.Tiles[i].InBlocked, reqs[i], served)
		}
	}
	for d, src := range a.OutSrc {
		if granted.Has(d) != (src >= 0) || src >= 0 && !a.Served[src].Has(d) {
			t.Fatalf("%s: OutSrc[%d] = %d disagrees with Served %v", where, d, src, a.Served)
		}
	}
	for _, x := range []int{dead, joining} {
		if x >= 0 && granted.Has(x) {
			t.Fatalf("%s: egress %d granted while dead or quarantined", where, x)
		}
	}
	members := make([]McastReq, n)
	streamLinks := make([][2]McastReq, n) // links each stream claims, cw then ccw
	cwOf := make([]bool, n)
	for _, tr := range a.Transfers {
		if members[tr.Src].Has(tr.Dst) {
			t.Fatalf("%s: transfer %+v recorded twice", where, tr)
		}
		if members[tr.Src] != 0 && cwOf[tr.Src] != tr.CW {
			t.Fatalf("%s: stream from %d takes both directions", where, tr.Src)
		}
		members[tr.Src] |= 1 << tr.Dst
		cwOf[tr.Src] = tr.CW
		if hop(tr.Src, tr.Hops, tr.CW, n) != tr.Dst || tr.Hops >= n {
			t.Fatalf("%s: transfer %+v: hops disagree with its ring distance", where, tr)
		}
		if reqs[tr.Src].Count() > 1 && !tr.CW {
			t.Fatalf("%s: multicast transfer %+v runs counterclockwise", where, tr)
		}
		for m := 0; m <= tr.Hops; m++ {
			if hop(tr.Src, m, tr.CW, n) == dead {
				t.Fatalf("%s: transfer %+v crosses severed tile %d", where, tr, dead)
			}
		}
		dir := 0
		if !tr.CW {
			dir = 1
		}
		claimPath(&streamLinks[tr.Src][dir], tr.Src, tr.Hops, tr.CW, n)
	}
	var links [2]McastReq
	for i := range members {
		if members[i] != a.Served[i] {
			t.Fatalf("%s: input %d transfers reach %v, Served %v", where, i, members[i], a.Served[i])
		}
		for dir, l := range streamLinks[i] {
			if l&links[dir] != 0 {
				t.Fatalf("%s: ring links %v (dir %d) claimed twice", where, l&links[dir], dir)
			}
			links[dir] |= l
		}
	}
	// The master: the highest class among live requesters, then the
	// first clockwise from the token. Its walk starts from free claims,
	// so it is served unless its whole request is pre-claimed, or (a
	// multicast arc runs clockwise only) the severed tile stands in
	// front of every member.
	master, top := -1, -1
	for k := 0; k < n; k++ {
		i := (token + k) % n
		if p := classOf(prio, i); i != dead && reqs[i] != 0 && p > top {
			master, top = i, p
		}
	}
	pre := McastReq(0)
	for _, x := range []int{dead, joining} {
		if x >= 0 {
			pre |= 1 << x
		}
	}
	if master >= 0 && reqs[master]&^pre != 0 && (dead < 0 || reqs[master].Count() == 1) && a.Served[master] == 0 {
		t.Fatalf("%s: master %d denied", where, master)
	}
}

func classOf(prio []uint8, i int) int {
	if prio == nil {
		return 0
	}
	return int(prio[i])
}

// checkOrder verifies the visiting order: every live tile exactly once,
// classes high to low, token order within a class, and never the dead
// tile.
func checkOrder(t testing.TB, n, token int, prio []uint8, dead int) {
	t.Helper()
	order := visitOrder(n, token, prio, dead)
	seen := McastReq(0)
	for k, i := range order {
		if i == dead || seen.Has(i) {
			t.Fatalf("token %d prio %v dead %d: order %v visits tile %d wrongly", token, prio, dead, order, i)
		}
		seen |= 1 << i
		if k > 0 {
			prev := order[k-1]
			if p, q := classOf(prio, prev), classOf(prio, i); p < q || p == q && (prev-token+n)%n > (i-token+n)%n {
				t.Fatalf("token %d prio %v dead %d: order %v out of class or token order", token, prio, dead, order)
			}
		}
	}
	if want := len(order); dead >= 0 && want != n-1 || dead < 0 && want != n {
		t.Fatalf("token %d prio %v dead %d: order %v misses a live tile", token, prio, dead, order)
	}
}

// TestMixedAllocatorExhaustive sweeps the entire 16^4 x 4 = 262,144 mixed
// request space and checks every walk invariant. Skipped in -short mode.
func TestMixedAllocatorExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive mixed sweep skipped in -short mode")
	}
	count := 0
	eachConfig(4, func(int, McastReq) bool { return true }, func(reqs []McastReq, token int) {
		count++
		checkWalk(t, reqs, token, nil, -1, -1, AllocateMixed(reqs, token))
	})
	if count != 262144 {
		t.Fatalf("visited %d configurations", count)
	}
}

// TestFaultWalkInvariants sweeps every healthy, dead-tile and
// joining-tile ring over the unicast space (the faulted tile silent)
// with every class vector in {0,1,2}⁴, checking the walk invariants and
// its visiting order.
func TestFaultWalkInvariants(t *testing.T) {
	const n = 4
	prio := make([]uint8, n)
	count := 0
	for fault := -1; fault < 2*n; fault++ {
		dead, joining := -1, -1
		switch {
		case fault >= n:
			joining = fault - n
		case fault >= 0:
			dead = fault
		}
		silent := max(dead, joining)
		keep := func(i int, m McastReq) bool { return unicast(i, m) && (i != silent || m == 0) }
		eachConfig(n, keep, func(reqs []McastReq, token int) {
			for c := 0; c < 81; c++ {
				for i, x := 0, c; i < n; i, x = i+1, x/3 {
					prio[i] = uint8(x % 3)
				}
				count++
				checkWalk(t, reqs, token, prio, dead, joining, AllocateFT(reqs, token, prio, dead, joining))
				if reqs[0] == 0 && reqs[1] == 0 && reqs[2] == 0 && reqs[3] == 0 {
					checkOrder(t, n, token, prio, dead)
				}
			}
		})
	}
	if want := 2500*81 + 2*n*500*81; count != want {
		t.Fatalf("visited %d configurations, want %d", count, want)
	}
}
