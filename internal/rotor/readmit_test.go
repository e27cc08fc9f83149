package rotor_test

import (
	"testing"

	"repro/internal/rotor"
)

// TestReadmitHealthyPrefixUnchanged: re-admission transition slots are
// appended to the fault-tolerant index; the healthy minimized prefix must
// stay bitwise identical so already-generated healthy routines keep their
// jump-table slots across degrade→restore cycles.
func TestReadmitHealthyPrefixUnchanged(t *testing.T) {
	healthy := rotor.NewConfigIndex(4)
	ft := rotor.NewConfigIndexFT(4)
	if ft.Len() < healthy.Len() {
		t.Fatalf("FT index smaller than healthy index: %d < %d", ft.Len(), healthy.Len())
	}
	for i := 0; i < healthy.Len(); i++ {
		if ft.Key(i) != healthy.Key(i) {
			t.Fatalf("healthy slot %d changed: %+v != %+v", i, ft.Key(i), healthy.Key(i))
		}
	}
}

// TestReadmitConfigsCovered: every configuration the probation allocator
// can reach is in the FT index (Of panics on a miss), over the full
// enumerated probation space.
func TestReadmitConfigsCovered(t *testing.T) {
	ci := rotor.NewConfigIndexFT(4)
	for _, k := range rotor.ReadmitConfigs(4) {
		var tc rotor.TileConfig
		tc.Out, tc.CWNext, tc.CCWNext = k.Out, k.CWNext, k.CCWNext
		tc.OutHops, tc.CWHops, tc.CCWHops = k.OutHops, k.CWHops, k.CCWHops
		_ = ci.Of(tc) // panics if absent
	}
}

// TestAllocateReadmitProperties: during probation (AllocateFT with a
// joining tile) the joining tile's egress is never granted, its ring
// links are usable for relay, no output or ring link is claimed twice,
// and the walk honors headers.
func TestAllocateReadmitProperties(t *testing.T) {
	n := 4
	prio := make([]uint8, n)
	hdrs := make([]rotor.Hdr, n)
	for joining := 0; joining < n; joining++ {
		var relayed bool
		var rec func(pos int)
		rec = func(pos int) {
			if pos == n {
				for token := 0; token < n; token++ {
					g := rotor.GlobalConfig{Hdrs: append([]rotor.Hdr(nil), hdrs...), Token: token}
					a := rotor.AllocateFT(reqsOf(g.Hdrs), g.Token, prio, -1, joining)
					outSeen := make([]bool, n)
					for _, tr := range a.Transfers {
						if tr.Dst == joining {
							t.Fatalf("joining=%d: quarantined egress granted (%+v)", joining, tr)
						}
						if g.Hdrs[tr.Src].Dest() != tr.Dst {
							t.Fatalf("joining=%d: transfer ignores header (%+v)", joining, tr)
						}
						if outSeen[tr.Dst] {
							t.Fatalf("joining=%d: output %d claimed twice", joining, tr.Dst)
						}
						outSeen[tr.Dst] = true
						// A multi-hop path whose arc crosses the joining
						// tile proves its ring links are usable for relay.
						for h := 1; h <= tr.Hops; h++ {
							step := tr.Src
							if tr.CW {
								step = (tr.Src + h) % n
							} else {
								step = (tr.Src - h + n) % n
							}
							if step == joining && step != tr.Dst {
								relayed = true
							}
						}
					}
					if a.Granted[joining] {
						t.Fatalf("joining=%d granted a transfer with an empty header", joining)
					}
				}
				return
			}
			if pos == joining {
				hdrs[pos] = rotor.HdrEmpty
				rec(pos + 1)
				return
			}
			for h := 0; h <= n; h++ {
				hdrs[pos] = rotor.Hdr(h)
				rec(pos + 1)
			}
		}
		rec(0)
		if !relayed {
			t.Fatalf("joining=%d: no allocation relays through the joining tile", joining)
		}
	}
}

// TestAllocateReadmitPanicsOnRequest: a probation tile that requests a
// transfer violates the protocol and must panic loudly, not corrupt the
// distributed schedule.
func TestAllocateReadmitPanicsOnRequest(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a requesting probation tile")
		}
	}()
	rotor.AllocateFT([]rotor.McastReq{rotor.McastTo(1), 0, 0, 0}, 0, make([]uint8, 4), -1, 0)
}
