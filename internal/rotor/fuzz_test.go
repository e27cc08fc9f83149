// Fuzz harness for the Rotating Crossbar reservation walk: for arbitrary
// ring sizes, member masks, token positions, priority classes and a dead
// or joining tile, the schedule must keep every walk invariant
// (checkWalk).
package rotor

import "testing"

// FuzzAllocate decodes its input as: ring size (2..8), token, one
// request byte per tile (below 128 a unicast header, v%(n+1) with 0
// empty; from 128 a member mask, its low n bits), then optionally a
// fault byte (f%3: none, dead, joining; tile f/3%n, whose request is
// dropped) and one class byte per tile (0..7); without class bytes the
// walk runs token order alone.
func FuzzAllocate(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4})
	f.Add([]byte{6, 3, 1, 1, 1, 1, 1, 1})    // all-to-one
	f.Add([]byte{4, 1, 2, 3, 4, 1})          // rotated permutation
	f.Add([]byte{7, 5, 0, 0, 0, 0, 0, 0, 0}) // all empty
	f.Add([]byte{3, 2, 3, 3, 2})
	f.Add([]byte{2, 1, 0x8e, 2, 0x85, 0x8a, 0, 0, 0, 0}) // member masks
	f.Add([]byte{2, 1, 3, 4, 1, 2, 7, 1, 0, 2, 0})       // tile 2 dead, classes
	f.Add([]byte{2, 3, 0x8f, 3, 0x86, 1, 5, 0, 3, 1, 3}) // tile 1 joining, masks and classes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := 2 + int(data[0])%7 // ring of 2..8 crossbar tiles
		token := int(data[1]) % n
		at := func(k int) byte {
			if k < len(data) {
				return data[k]
			}
			return 0
		}
		reqs := make([]McastReq, n)
		for i := range reqs {
			if b := at(2 + i); b >= 128 {
				reqs[i] = McastReq(b) & (1<<n - 1)
			} else if v := int(b) % (n + 1); v > 0 {
				reqs[i] = McastTo(v - 1)
			}
		}
		dead, joining := -1, -1
		if fb := at(2 + n); fb%3 != 0 {
			tile := int(fb/3) % n
			reqs[tile] = 0
			if fb%3 == 1 {
				dead = tile
			} else {
				joining = tile
			}
		}
		var prio []uint8
		if len(data) >= 3+2*n {
			prio = make([]uint8, n)
			for i := range prio {
				prio[i] = data[3+n+i] % 8
			}
		}
		checkWalk(t, reqs, token, prio, dead, joining, AllocateFT(reqs, token, prio, dead, joining))
		checkOrder(t, n, token, prio, dead)
	})
}

// TestTokenRotationFair pins the fairness consequence of token rotation:
// under a sustained all-to-one pattern, exactly one input wins each
// quantum, and over n quanta with the token advancing each time, every
// input wins exactly once — for every ring size and every hotspot.
func TestTokenRotationFair(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for hot := 0; hot < n; hot++ {
			hdrs := make([]Hdr, n)
			for i := range hdrs {
				hdrs[i] = HdrTo(hot)
			}
			wins := make([]int, n)
			token := 0
			for q := 0; q < n; q++ {
				a := Allocate(GlobalConfig{Hdrs: hdrs, Token: token})
				if len(a.Transfers) != 1 {
					t.Fatalf("n=%d hot=%d token=%d: %d transfers for a single egress, want 1", n, hot, token, len(a.Transfers))
				}
				wins[a.Transfers[0].Src]++
				token = NextToken(token, n)
			}
			for i, w := range wins {
				if w != 1 {
					t.Errorf("n=%d hot=%d: input %d won %d of %d quanta, want exactly 1", n, hot, i, w, n)
				}
			}
		}
	}
}
