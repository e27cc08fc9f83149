// Fuzz harness for the Rotating Crossbar allocation walk: for arbitrary
// ring sizes, header vectors, and token positions, the schedule must
// grant each egress at most once, claim each directed ring link at most
// once, keep Granted consistent with Transfers, and always serve the
// token master.
package rotor_test

import (
	"testing"

	"repro/internal/rotor"
)

func FuzzAllocate(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4})
	f.Add([]byte{6, 3, 1, 1, 1, 1, 1, 1})    // all-to-one
	f.Add([]byte{4, 1, 2, 3, 4, 1})          // rotated permutation
	f.Add([]byte{7, 5, 0, 0, 0, 0, 0, 0, 0}) // all empty
	f.Add([]byte{3, 2, 3, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := 2 + int(data[0])%7 // ring of 2..8 crossbar tiles
		token := int(data[1]) % n
		hdrs := make([]rotor.Hdr, n)
		for i := range hdrs {
			var b byte
			if 2+i < len(data) {
				b = data[2+i]
			}
			if v := int(b) % (n + 1); v > 0 {
				hdrs[i] = rotor.HdrTo(v - 1)
			}
		}
		a := rotor.Allocate(rotor.GlobalConfig{Hdrs: hdrs, Token: token})

		granted := make([]bool, n)
		egress := make([]bool, n)
		cwLink := make([]bool, n)  // clockwise link leaving tile i
		ccwLink := make([]bool, n) // counterclockwise link leaving tile i
		for _, tr := range a.Transfers {
			if tr.Src < 0 || tr.Src >= n || tr.Dst < 0 || tr.Dst >= n {
				t.Fatalf("transfer %+v out of range for n=%d", tr, n)
			}
			if hdrs[tr.Src].Dest() != tr.Dst {
				t.Errorf("input %d granted egress %d but requested %d", tr.Src, tr.Dst, hdrs[tr.Src].Dest())
			}
			if granted[tr.Src] {
				t.Errorf("input %d granted twice in one quantum", tr.Src)
			}
			granted[tr.Src] = true
			if egress[tr.Dst] {
				t.Errorf("egress %d granted twice in one quantum", tr.Dst)
			}
			egress[tr.Dst] = true
			wantCW := (tr.Dst - tr.Src + n) % n
			wantCCW := (tr.Src - tr.Dst + n) % n
			if (tr.CW && tr.Hops != wantCW) || (!tr.CW && tr.Hops != wantCCW) {
				t.Errorf("transfer %+v: hop count inconsistent with ring distance (cw %d, ccw %d)", tr, wantCW, wantCCW)
			}
			for m := 0; m < tr.Hops; m++ {
				if tr.CW {
					j := (tr.Src + m) % n
					if cwLink[j] {
						t.Errorf("clockwise link %d claimed twice", j)
					}
					cwLink[j] = true
				} else {
					j := (tr.Src - m + n) % n
					if ccwLink[j] {
						t.Errorf("counterclockwise link %d claimed twice", j)
					}
					ccwLink[j] = true
				}
			}
		}
		for i := 0; i < n; i++ {
			if a.Granted[i] != granted[i] {
				t.Errorf("Granted[%d] = %v but transfers say %v", i, a.Granted[i], granted[i])
			}
			if granted[i] && hdrs[i] == rotor.HdrEmpty {
				t.Errorf("empty input %d was granted", i)
			}
		}
		if hdrs[token] != rotor.HdrEmpty && !a.Granted[token] {
			t.Errorf("token master %d (header to %d) was not granted — the walk must always serve the master first", token, hdrs[token].Dest())
		}
	})
}

// TestTokenRotationFair pins the fairness consequence of token rotation:
// under a sustained all-to-one pattern, exactly one input wins each
// quantum, and over n quanta with the token advancing each time, every
// input wins exactly once — for every ring size and every hotspot.
func TestTokenRotationFair(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for hot := 0; hot < n; hot++ {
			hdrs := make([]rotor.Hdr, n)
			for i := range hdrs {
				hdrs[i] = rotor.HdrTo(hot)
			}
			wins := make([]int, n)
			token := 0
			for q := 0; q < n; q++ {
				a := rotor.Allocate(rotor.GlobalConfig{Hdrs: hdrs, Token: token})
				if len(a.Transfers) != 1 {
					t.Fatalf("n=%d hot=%d token=%d: %d transfers for a single egress, want 1", n, hot, token, len(a.Transfers))
				}
				wins[a.Transfers[0].Src]++
				token = rotor.NextToken(token, n)
			}
			for i, w := range wins {
				if w != 1 {
					t.Errorf("n=%d hot=%d: input %d won %d of %d quanta, want exactly 1", n, hot, i, w, n)
				}
			}
		}
	}
}
