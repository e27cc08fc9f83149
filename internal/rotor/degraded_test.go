package rotor

import "testing"

// TestDegradedNeverTouchesDeadTile: no grant may target the dead egress,
// and no painted stream may use the dead tile's servers, for every
// degraded global configuration.
func TestDegradedNeverTouchesDeadTile(t *testing.T) {
	const n = 4
	prio := make([]uint8, n)
	for dead := 0; dead < n; dead++ {
		keep := func(i int, m McastReq) bool { return unicast(i, m) && !m.Has(dead) && (i != dead || m == 0) }
		eachConfig(n, keep, func(reqs []McastReq, token int) {
			a := AllocateFT(reqs, token, prio, dead, -1)
			if a.Granted[dead] {
				t.Fatalf("dead=%d reqs=%v token=%d: dead tile granted", dead, reqs, token)
			}
			if a.Tiles[dead].Active() {
				t.Fatalf("dead=%d reqs=%v token=%d: dead tile painted %v",
					dead, reqs, token, a.Tiles[dead])
			}
			for _, tr := range a.Transfers {
				if tr.Src == dead || tr.Dst == dead {
					t.Fatalf("dead=%d: transfer %+v touches dead tile", dead, tr)
				}
				// Walk the ring path and assert it avoids the hole.
				for m := 0; m <= tr.Hops; m++ {
					if hop(tr.Src, m, tr.CW, n) == dead {
						t.Fatalf("dead=%d: transfer %+v routes through dead tile", dead, tr)
					}
				}
			}
		})
	}
}

// TestDegradedSingleRequesterAlwaysGranted: with three live tiles and only
// one requester, the surviving ring must always route it — the long way
// round if the short arc crosses the hole.
func TestDegradedSingleRequesterAlwaysGranted(t *testing.T) {
	const n = 4
	prio := make([]uint8, n)
	for dead := 0; dead < n; dead++ {
		for src := 0; src < n; src++ {
			if src == dead {
				continue
			}
			for dst := 0; dst < n; dst++ {
				if dst == dead {
					continue
				}
				reqs := make([]McastReq, n)
				reqs[src] = McastTo(dst)
				for token := 0; token < n; token++ {
					if token == dead {
						continue
					}
					a := AllocateFT(reqs, token, prio, dead, -1)
					if !a.Granted[src] {
						t.Fatalf("dead=%d src=%d dst=%d token=%d: sole requester denied",
							dead, src, dst, token)
					}
				}
			}
		}
	}
}

// TestFTIndexExtendsHealthyIndex: the fault-tolerant index must keep every
// healthy configuration at its healthy slot and cover all degraded
// configurations.
func TestFTIndexExtendsHealthyIndex(t *testing.T) {
	healthy := NewConfigIndex(4)
	ft := NewConfigIndexFT(4)
	if ft.Len() < healthy.Len() {
		t.Fatalf("FT index smaller than healthy: %d < %d", ft.Len(), healthy.Len())
	}
	for i := 0; i < healthy.Len(); i++ {
		if ft.Key(i) != healthy.Key(i) {
			t.Fatalf("slot %d differs: %+v != %+v", i, ft.Key(i), healthy.Key(i))
		}
	}
	for _, k := range DegradedConfigs(4) {
		var tc TileConfig
		tc.Out, tc.CWNext, tc.CCWNext = k.Out, k.CWNext, k.CCWNext
		tc.OutHops, tc.CWHops, tc.CCWHops = k.OutHops, k.CWHops, k.CCWHops
		ft.Of(tc) // must not panic
	}
	t.Logf("healthy=%d ft=%d (degraded-only=%d)", healthy.Len(), ft.Len(), ft.Len()-healthy.Len())
}
