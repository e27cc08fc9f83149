package rotor_test

import (
	"testing"
	"testing/quick"

	"repro/internal/rotor"
	"repro/internal/traffic"
)

// TestFigure5_1AllFourRoute reproduces the worked example of §5.2 /
// Figure 5-1: with the token at port 0 and destinations (2,3,0,1), all
// four ingress processors send simultaneously — ports 0 and 2 clockwise,
// ports 1 and 3 counterclockwise.
func TestFigure5_1AllFourRoute(t *testing.T) {
	g := rotor.GlobalConfig{
		Hdrs:  []rotor.Hdr{rotor.HdrTo(2), rotor.HdrTo(3), rotor.HdrTo(0), rotor.HdrTo(1)},
		Token: 0,
	}
	a := rotor.Allocate(g)
	if len(a.Transfers) != 4 {
		t.Fatalf("granted %d transfers, want 4", len(a.Transfers))
	}
	dir := map[int]bool{} // src -> cw
	for _, tr := range a.Transfers {
		dir[tr.Src] = tr.CW
		if tr.Hops != 2 {
			t.Fatalf("transfer %d->%d took %d hops, want 2", tr.Src, tr.Dst, tr.Hops)
		}
	}
	if !dir[0] || dir[1] || !dir[2] || dir[3] {
		t.Fatalf("directions src->cw = %v, want 0,2 clockwise and 1,3 counterclockwise", dir)
	}
	for i := 0; i < 4; i++ {
		if !a.Granted[i] || a.Tiles[i].InBlocked {
			t.Fatalf("input %d not granted", i)
		}
	}
}

// BenchmarkAllocate times the distributed allocation walk of Figure 5-1
// itself — the per-quantum work every crossbar processor repeats — with
// the token at each port in turn; every walk must grant all four.
func BenchmarkAllocate(b *testing.B) {
	g := rotor.GlobalConfig{
		Hdrs: []rotor.Hdr{rotor.HdrTo(2), rotor.HdrTo(3), rotor.HdrTo(0), rotor.HdrTo(1)},
	}
	granted := 0
	for i := 0; i < b.N; i++ {
		g.Token = i % 4
		a := rotor.Allocate(g)
		granted += len(a.Transfers)
	}
	if granted != 4*b.N {
		b.Fatalf("granted %d transfers over %d walks, want all four every time", granted, b.N)
	}
}

// TestSpaceSize2500 checks the §6.1 arithmetic: |Hdr|⁴ × |Token| = 2,500,
// and that the unminimized space leaves only ≈3.3 instruction words per
// configuration in the 8,192-word memory.
func TestSpaceSize2500(t *testing.T) {
	if s := rotor.SpaceSize(4); s != 2500 {
		t.Fatalf("space size %d, want 2500", s)
	}
	if n := rotor.EnumerateSpace(4, nil); n != 2500 {
		t.Fatalf("enumerated %d configs, want 2500", n)
	}
	per := rotor.UnminimizedIMemNeed(4, 8192)
	if per < 3.2 || per > 3.4 {
		t.Fatalf("words per config %.2f, want ≈3.3 (§6.1)", per)
	}
}

// TestMinimizedConfigs checks the §6.2 minimization. The thesis reports a
// self-sufficient subset of 32 entries (a 78x reduction); our
// reconstruction of the underspecified walk yields 42 distinct per-tile
// switch routines (a 59x reduction) — same conclusion: the minimized
// space fits the 8,192-word memories with two orders of magnitude to
// spare, while the raw 2,500-config space does not.
func TestMinimizedConfigs(t *testing.T) {
	keys := rotor.MinimizedConfigs(4)
	if len(keys) != 27 {
		t.Fatalf("minimized to %d configs, want 27 (paper: 32)", len(keys))
	}
	reduction := float64(rotor.SpaceSize(4)) / float64(len(keys))
	if reduction < 50 {
		t.Fatalf("reduction %.0fx, want same order as the paper's 78x", reduction)
	}
	// Self-sufficiency: every allocation's per-tile configs are in the set.
	ci := rotor.NewConfigIndex(4)
	rotor.EnumerateSpace(4, func(_ rotor.GlobalConfig, a rotor.Allocation) {
		for _, tc := range a.Tiles {
			_ = ci.Of(tc) // panics if outside the set
		}
	})
	if ci.Len() != len(keys) {
		t.Fatalf("index has %d entries", ci.Len())
	}
}

// TestAllocationInvariants exhaustively checks, over all 2,500 global
// configurations, the properties Chapter 5 claims: no output claimed
// twice, no ring link claimed twice (deadlock-freedom by construction,
// §5.5), granted inputs' headers honored, blocked flags consistent.
func TestAllocationInvariants(t *testing.T) {
	n := 4
	count := rotor.EnumerateSpace(n, func(g rotor.GlobalConfig, a rotor.Allocation) {
		outSeen := make([]bool, n)
		cwSeen := make([]bool, n)
		ccwSeen := make([]bool, n)
		for _, tr := range a.Transfers {
			if g.Hdrs[tr.Src].Dest() != tr.Dst {
				t.Fatalf("%+v: transfer %v does not match header", g, tr)
			}
			if outSeen[tr.Dst] {
				t.Fatalf("%+v: output %d claimed twice", g, tr.Dst)
			}
			outSeen[tr.Dst] = true
			for m := 0; m < tr.Hops; m++ {
				if tr.CW {
					j := (tr.Src + m) % n
					if cwSeen[j] {
						t.Fatalf("%+v: cw link %d claimed twice", g, j)
					}
					cwSeen[j] = true
				} else {
					j := (tr.Src - m + n) % n
					if ccwSeen[j] {
						t.Fatalf("%+v: ccw link %d claimed twice", g, j)
					}
					ccwSeen[j] = true
				}
			}
		}
		for i := 0; i < n; i++ {
			want := g.Hdrs[i] != rotor.HdrEmpty && !a.Granted[i]
			if a.Tiles[i].InBlocked != want {
				t.Fatalf("%+v: tile %d blocked flag %v, want %v", g, i, a.Tiles[i].InBlocked, want)
			}
		}
	})
	if count != 2500 {
		t.Fatalf("visited %d configs", count)
	}
}

// TestMasterAlwaysGranted: the token holder with a non-empty header is
// always granted — the §5.4 fairness anchor.
func TestMasterAlwaysGranted(t *testing.T) {
	rotor.EnumerateSpace(4, func(g rotor.GlobalConfig, a rotor.Allocation) {
		if g.Hdrs[g.Token] != rotor.HdrEmpty && !a.Granted[g.Token] {
			t.Fatalf("master %d with header %v was denied", g.Token, g.Hdrs[g.Token])
		}
	})
}

// TestPermutationsAlwaysRoute: any conflict-free destination permutation
// routes completely in a single quantum on a single static network — the
// topological property behind §5.3's sufficiency claim.
func TestPermutationsAlwaysRoute(t *testing.T) {
	perms := permutations([]int{0, 1, 2, 3})
	for _, p := range perms {
		for token := 0; token < 4; token++ {
			hdrs := make([]rotor.Hdr, 4)
			for i, d := range p {
				hdrs[i] = rotor.HdrTo(d)
			}
			a := rotor.Allocate(rotor.GlobalConfig{Hdrs: hdrs, Token: token})
			if len(a.Transfers) != 4 {
				t.Fatalf("perm %v token %d: only %d transfers granted", p, token, len(a.Transfers))
			}
		}
	}
}

func permutations(s []int) [][]int {
	if len(s) <= 1 {
		return [][]int{append([]int(nil), s...)}
	}
	var out [][]int
	for i := range s {
		rest := append(append([]int(nil), s[:i]...), s[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{s[i]}, p...))
		}
	}
	return out
}

// TestTokenFairness (§5.4): with every input permanently backlogged, each
// input sends at least once in any window of Ports quanta.
func TestTokenFairness(t *testing.T) {
	f := rotor.NewFabric(rotor.DefaultFabricConfig())
	rng := traffic.NewRNG(11)
	// Adversarial backlog: everyone floods output 0.
	for q := 0; q < 400; q++ {
		for i := 0; i < 4; i++ {
			if f.QueueLen(i) < 4 {
				f.Offer(i, 0, 16)
			}
		}
		f.StepQuantum()
		_ = rng
	}
	for i := 0; i < 4; i++ {
		if f.GrantsPerInput[i] < 100-4 {
			t.Fatalf("input %d sent %d of ~100 fair shares", i, f.GrantsPerInput[i])
		}
	}
	// Windowed check: run again recording per-quantum grants.
	f2 := rotor.NewFabric(rotor.DefaultFabricConfig())
	var grants [][]bool
	for q := 0; q < 100; q++ {
		for i := 0; i < 4; i++ {
			if f2.QueueLen(i) < 4 {
				f2.Offer(i, 0, 16)
			}
		}
		a := f2.StepQuantum()
		grants = append(grants, append([]bool(nil), a.Granted...))
	}
	for start := 0; start+4 <= len(grants); start++ {
		for i := 0; i < 4; i++ {
			ok := false
			for w := 0; w < 4; w++ {
				if grants[start+w][i] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("input %d starved in quanta %d..%d", i, start, start+3)
			}
		}
	}
}

// TestUniformGrantRatio: under uniform i.i.d. destinations, the granted
// fraction per quantum sits near E[distinct outputs]/4 = 1-(3/4)^4·…
// ≈ 0.68 — which is exactly the paper's "average performance is only
// about 69% of the peak" (§7.3).
func TestUniformGrantRatio(t *testing.T) {
	f := rotor.NewFabric(rotor.DefaultFabricConfig())
	rng := traffic.NewRNG(77)
	var granted, offered int64
	for q := 0; q < 30000; q++ {
		for i := 0; i < 4; i++ {
			if f.QueueLen(i) < 2 {
				f.Offer(i, rng.Intn(4), 16)
			}
		}
		a := f.StepQuantum()
		for i := 0; i < 4; i++ {
			offered++
			if a.Granted[i] {
				granted++
			}
		}
	}
	ratio := float64(granted) / float64(offered)
	if ratio < 0.60 || ratio > 0.78 {
		t.Fatalf("uniform grant ratio %.3f, want ≈ 0.69 (§7.3)", ratio)
	}
}

// TestSecondNetworkNoHelp (§5.3): adding the second static network does
// not improve uniform-traffic throughput, because output contention, not
// ring bandwidth, binds.
func TestSecondNetworkNoHelp(t *testing.T) {
	run := func(second bool) int64 {
		cfg := rotor.DefaultFabricConfig()
		cfg.SecondNetwork = second
		f := rotor.NewFabric(cfg)
		rng := traffic.NewRNG(5)
		for q := 0; q < 20000; q++ {
			for i := 0; i < 4; i++ {
				if f.QueueLen(i) < 2 {
					f.Offer(i, rng.Intn(4), 64)
				}
			}
			f.StepQuantum()
		}
		return f.TotalWords()
	}
	one := run(false)
	two := run(true)
	diff := float64(two-one) / float64(one)
	if diff > 0.01 || diff < -0.01 {
		t.Fatalf("second network changed throughput by %.2f%% (one=%d two=%d); §5.3 predicts none",
			100*diff, one, two)
	}
}

// TestFabricConservation: every offered word is either still queued or
// delivered; completed packets arrive exactly once.
func TestFabricConservation(t *testing.T) {
	f := rotor.NewFabric(rotor.DefaultFabricConfig())
	rng := traffic.NewRNG(31)
	var offeredWords int64
	for q := 0; q < 5000; q++ {
		for i := 0; i < 4; i++ {
			if rng.Float64() < 0.7 && f.QueueLen(i) < 8 {
				w := 16 * (1 + rng.Intn(16))
				if f.Offer(i, rng.Intn(4), w) {
					offeredWords += int64(w)
				}
			}
		}
		f.StepQuantum()
	}
	// Drain.
	for q := 0; q < 20000; q++ {
		f.StepQuantum()
	}
	if f.TotalWords() != offeredWords {
		t.Fatalf("delivered %d words of %d offered", f.TotalWords(), offeredWords)
	}
}

// TestQoSWeightedToken (§8.7): a port with token weight 3 gets a
// proportionally larger share of a contended output.
func TestQoSWeightedToken(t *testing.T) {
	cfg := rotor.DefaultFabricConfig()
	cfg.Weights = []int{3, 1, 1, 1}
	f := rotor.NewFabric(cfg)
	for q := 0; q < 6000; q++ {
		for i := 0; i < 4; i++ {
			if f.QueueLen(i) < 2 {
				f.Offer(i, 2, 32) // everyone fights for output 2
			}
		}
		f.StepQuantum()
	}
	w0 := float64(f.GrantsPerInput[0])
	w1 := float64(f.GrantsPerInput[1])
	if w0/w1 < 1.5 {
		t.Fatalf("weighted port got %.0f grants vs %.0f: ratio %.2f, want > 1.5", w0, w1, w0/w1)
	}
}

// TestMulticastFanout (§8.6): one input reaches several egresses in one
// quantum via fanout-splitting.
func TestMulticastFanout(t *testing.T) {
	reqs := []rotor.McastReq{rotor.McastTo(1, 2, 3), 0, 0, 0}
	a := rotor.AllocateMcast(reqs, 0)
	if a.Granted[0].Count() != 3 {
		t.Fatalf("fanout served %d of 3 members", a.Granted[0].Count())
	}
	// Tiles 1 and 2 must both deliver and pass through.
	if a.Tiles[1].Out != rotor.ClCWPrev || a.Tiles[1].CWNext != rotor.ClCWPrev {
		t.Fatalf("tile 1 config %v", a.Tiles[1])
	}
	if a.Tiles[3].Out != rotor.ClCWPrev || a.Tiles[3].OutHops != 3 {
		t.Fatalf("tile 3 config %v", a.Tiles[3])
	}
}

// TestMulticastPartialService: contention trims the served subset, never
// the correctness.
func TestMulticastPartialService(t *testing.T) {
	reqs := []rotor.McastReq{rotor.McastTo(1), rotor.McastTo(1, 2), 0, 0}
	a := rotor.AllocateMcast(reqs, 0)
	if !a.Granted[0].Has(1) {
		t.Fatal("master's unicast-like request denied")
	}
	if a.Granted[1].Has(1) {
		t.Fatal("output 1 double-granted")
	}
	if !a.Granted[1].Has(2) {
		t.Fatal("free member 2 should be served")
	}
}

// TestAllocateProperty quick-checks invariants on random header vectors
// beyond the exhaustive 4-port sweep, at ring size 8 (§8.5 scaling).
func TestAllocateProperty(t *testing.T) {
	f := func(raw [8]uint8, token uint8) bool {
		n := 8
		hdrs := make([]rotor.Hdr, n)
		for i, r := range raw {
			hdrs[i] = rotor.Hdr(int(r) % (n + 1))
		}
		a := rotor.Allocate(rotor.GlobalConfig{Hdrs: hdrs, Token: int(token) % n})
		outSeen := make([]bool, n)
		for _, tr := range a.Transfers {
			if outSeen[tr.Dst] {
				return false
			}
			outSeen[tr.Dst] = true
			if tr.Hops < 0 || tr.Hops >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHdrRoundTrip covers the header helpers.
func TestHdrRoundTrip(t *testing.T) {
	if rotor.HdrEmpty.Dest() != -1 {
		t.Fatal("empty header has a destination")
	}
	for d := 0; d < 4; d++ {
		if rotor.HdrTo(d).Dest() != d {
			t.Fatalf("HdrTo(%d) round trip failed", d)
		}
	}
}

// TestPaddingAccounting: mixed fragment lengths in one quantum cost
// padding, which the fabric reports.
func TestPaddingAccounting(t *testing.T) {
	f := rotor.NewFabric(rotor.DefaultFabricConfig())
	f.Offer(0, 1, 256) // long
	f.Offer(1, 2, 16)  // short: pads to 256 in the same quantum
	f.StepQuantum()
	if f.PadWords != 240 {
		t.Fatalf("padding %d words, want 240", f.PadWords)
	}
}

// TestMixedConfigsSupersetAndInvariants: the §8.6 mixed space contains
// the unicast space, stays small (51 entries for n=4), and every mixed
// allocation over a random sample respects the conflict-freedom
// invariants.
func TestMixedConfigsSupersetAndInvariants(t *testing.T) {
	mixed := rotor.MixedConfigs(4)
	if len(mixed) != 51 {
		t.Fatalf("mixed space has %d configs, want 51", len(mixed))
	}
	inMixed := map[rotor.ConfigKey]bool{}
	for _, k := range mixed {
		inMixed[k] = true
	}
	for _, k := range rotor.MinimizedConfigs(4) {
		if !inMixed[k] {
			t.Fatalf("unicast config %+v missing from mixed space", k)
		}
	}

	rng := traffic.NewRNG(321)
	for trial := 0; trial < 20000; trial++ {
		reqs := make([]rotor.McastReq, 4)
		for i := range reqs {
			reqs[i] = rotor.McastReq(rng.Intn(16))
		}
		token := rng.Intn(4)
		a := rotor.AllocateMixed(reqs, token)
		var outSeen rotor.McastReq
		for i := 0; i < 4; i++ {
			if a.Served[i]&^reqs[i] != 0 {
				t.Fatalf("reqs %v: input %d served unrequested members", reqs, i)
			}
			if a.Served[i]&outSeen != 0 {
				t.Fatalf("reqs %v token %d: egress double-granted", reqs, token)
			}
			outSeen |= a.Served[i]
		}
		// OutSrc consistency.
		for d := 0; d < 4; d++ {
			src := a.OutSrc[d]
			if outSeen.Has(d) != (src >= 0) {
				t.Fatalf("reqs %v: OutSrc[%d]=%d inconsistent with served set", reqs, d, src)
			}
			if src >= 0 && !a.Served[src].Has(d) {
				t.Fatalf("reqs %v: OutSrc[%d]=%d but input %d not serving it", reqs, d, src, src)
			}
		}
		// Master with a request is always served at least partially
		// (fairness extends to multicast).
		if reqs[token] != 0 && a.Served[token] == 0 {
			t.Fatalf("reqs %v: master %d fully denied", reqs, token)
		}
	}
}

// TestMixedUnicastMatchesAllocate: on unicast-only request vectors the
// mixed allocator grants exactly the same transfers as Allocate.
func TestMixedUnicastMatchesAllocate(t *testing.T) {
	rotor.EnumerateSpace(4, func(g rotor.GlobalConfig, a rotor.Allocation) {
		reqs := make([]rotor.McastReq, 4)
		for i, h := range g.Hdrs {
			if d := h.Dest(); d >= 0 {
				reqs[i] = rotor.McastTo(d)
			}
		}
		m := rotor.AllocateMixed(reqs, g.Token)
		for i := 0; i < 4; i++ {
			wantServed := rotor.McastReq(0)
			if a.Granted[i] {
				wantServed = rotor.McastTo(g.Hdrs[i].Dest())
			}
			if m.Served[i] != wantServed {
				t.Fatalf("%+v: input %d mixed served %v, unicast granted %v",
					g, i, m.Served[i], a.Granted[i])
			}
			if m.Tiles[i].Key() != a.Tiles[i].Key() {
				t.Fatalf("%+v: tile %d configs diverge: %v vs %v",
					g, i, m.Tiles[i], a.Tiles[i])
			}
		}
	})
}

// TestVOQIngressBeatsFIFO (§8.1): organizing the ingress buffers as
// virtual output queues removes head-of-line blocking and lifts uniform
// average throughput well above the paper's single-FIFO 69 %.
func TestVOQIngressBeatsFIFO(t *testing.T) {
	rng := traffic.NewRNG(6)
	cfg := rotor.DefaultFabricConfig()

	fifo := rotor.NewFabric(cfg)
	for q := 0; q < 30000; q++ {
		for p := 0; p < 4; p++ {
			if fifo.QueueLen(p) < 4 {
				fifo.Offer(p, rng.Intn(4), 64)
			}
		}
		fifo.StepQuantum()
	}

	voq := rotor.NewVOQFabric(cfg)
	for q := 0; q < 30000; q++ {
		for p := 0; p < 4; p++ {
			if voq.QueueLen(p) < 8 {
				voq.Offer(p, rng.Intn(4), 64)
			}
		}
		voq.StepQuantum()
	}

	fifoRatio := float64(fifo.TotalWords()) / float64(fifo.Cycles)
	voqRatio := float64(voq.TotalWords()) / float64(voq.Cycles)
	if voqRatio < fifoRatio*1.2 {
		t.Fatalf("VOQ ingress %.3f words/cycle vs FIFO %.3f: expected ≥ +20%%", voqRatio, fifoRatio)
	}
	var grants, offered int64
	for p := 0; p < 4; p++ {
		grants += voq.GrantsPerInput[p]
		offered += voq.GrantsPerInput[p] + voq.BlockedPerInput[p]
	}
	if ratio := float64(grants) / float64(offered); ratio < 0.85 {
		t.Fatalf("VOQ grant ratio %.3f, want ≥ 0.85 (HOL eliminated)", ratio)
	}
}

// TestVOQFragmentsStayOrdered: a multi-fragment packet pins its queue so
// fragments never interleave with other packets on the same egress.
func TestVOQFragmentsStayOrdered(t *testing.T) {
	cfg := rotor.DefaultFabricConfig()
	cfg.QuantumWords = 64
	f := rotor.NewVOQFabric(cfg)
	f.Offer(0, 1, 200) // 4 fragments
	f.Offer(0, 2, 32)  // would tempt the round-robin mid-packet
	for q := 0; q < 20; q++ {
		f.StepQuantum()
	}
	if f.PktsOut[1] != 1 || f.PktsOut[2] != 1 {
		t.Fatalf("deliveries %v", f.PktsOut)
	}
	if f.WordsOut[1] != 200 || f.WordsOut[2] != 32 {
		t.Fatalf("words %v", f.WordsOut)
	}
}

// TestPriorityArbitration (§8.7): under contention for one egress, the
// high-priority requester wins regardless of token position, and with
// equal priorities AllocatePrio degenerates to Allocate exactly.
func TestPriorityArbitration(t *testing.T) {
	// Inputs 1 and 3 both want egress 2; input 3 is high priority; the
	// token favors input 1.
	g := rotor.GlobalConfig{
		Hdrs:  []rotor.Hdr{0, rotor.HdrTo(2), 0, rotor.HdrTo(2)},
		Token: 1,
	}
	a := rotor.AllocatePrio(g, []uint8{0, 0, 0, 5})
	if !a.Granted[3] || a.Granted[1] {
		t.Fatalf("priority ignored: granted=%v", a.Granted)
	}
	// Equal priorities: identical to the plain walk, for the whole space.
	rotor.EnumerateSpace(4, func(g rotor.GlobalConfig, want rotor.Allocation) {
		got := rotor.AllocatePrio(g, []uint8{0, 0, 0, 0})
		for i := 0; i < 4; i++ {
			if got.Granted[i] != want.Granted[i] || got.Tiles[i].Key() != want.Tiles[i].Key() {
				t.Fatalf("%+v: equal-priority walk diverges at tile %d", g, i)
			}
		}
	})
}

// TestPriorityProtectsBandwidth: a high-priority flow keeps full service
// while best-effort flows fight over the leftovers.
func TestPriorityProtectsBandwidth(t *testing.T) {
	var hiGrants, loGrants int64
	token := 0
	for q := 0; q < 10000; q++ {
		// Input 0 is premium, always sending to egress 2; inputs 1-3 are
		// best effort, also flooding egress 2.
		g := rotor.GlobalConfig{
			Hdrs:  []rotor.Hdr{rotor.HdrTo(2), rotor.HdrTo(2), rotor.HdrTo(2), rotor.HdrTo(2)},
			Token: token,
		}
		a := rotor.AllocatePrio(g, []uint8{7, 0, 0, 0})
		if a.Granted[0] {
			hiGrants++
		}
		for i := 1; i < 4; i++ {
			if a.Granted[i] {
				loGrants++
			}
		}
		token = rotor.NextToken(token, 4)
	}
	if hiGrants != 10000 {
		t.Fatalf("premium input granted %d of 10000 quanta", hiGrants)
	}
	if loGrants != 0 {
		t.Fatalf("strict priority leaked %d grants to best effort on a saturated class", loGrants)
	}
}

// TestAllocationInvariantsN3N5: the walk's invariants hold for other ring
// sizes too (exhaustive at n=3, the 4^3*3 and 6^5*5 spaces).
func TestAllocationInvariantsN3N5(t *testing.T) {
	for _, n := range []int{3, 5} {
		hdrs := make([]rotor.Hdr, n)
		var rec func(pos int)
		rec = func(pos int) {
			if pos == n {
				for token := 0; token < n; token++ {
					a := rotor.Allocate(rotor.GlobalConfig{Hdrs: append([]rotor.Hdr(nil), hdrs...), Token: token})
					outSeen := make([]bool, n)
					for _, tr := range a.Transfers {
						if outSeen[tr.Dst] {
							t.Fatalf("n=%d: output %d double-granted", n, tr.Dst)
						}
						outSeen[tr.Dst] = true
					}
					if hdrs[token] != rotor.HdrEmpty && !a.Granted[token] {
						t.Fatalf("n=%d: master denied", n)
					}
				}
				return
			}
			for h := 0; h <= n; h++ {
				hdrs[pos] = rotor.Hdr(h)
				rec(pos + 1)
			}
		}
		rec(0)
	}
}

// TestMixedAllocatorExhaustive sweeps the entire 16^4 x 4 = 262,144 mixed
// request space and checks every §8.6 invariant. Skipped in -short mode.
func TestMixedAllocatorExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive mixed sweep skipped in -short mode")
	}
	reqs := make([]rotor.McastReq, 4)
	var rec func(pos int)
	count := 0
	rec = func(pos int) {
		if pos == 4 {
			for token := 0; token < 4; token++ {
				count++
				a := rotor.AllocateMixed(reqs, token)
				var outSeen rotor.McastReq
				for i := 0; i < 4; i++ {
					if a.Served[i]&^reqs[i] != 0 {
						t.Fatalf("reqs %v token %d: unrequested member served", reqs, token)
					}
					if a.Served[i]&outSeen != 0 {
						t.Fatalf("reqs %v token %d: egress double-granted", reqs, token)
					}
					outSeen |= a.Served[i]
				}
				if reqs[token] != 0 && a.Served[token] == 0 {
					t.Fatalf("reqs %v token %d: master fully denied", reqs, token)
				}
				for d := 0; d < 4; d++ {
					if outSeen.Has(d) != (a.OutSrc[d] >= 0) {
						t.Fatalf("reqs %v token %d: OutSrc inconsistent", reqs, token)
					}
				}
			}
			return
		}
		for m := 0; m < 16; m++ {
			reqs[pos] = rotor.McastReq(m)
			rec(pos + 1)
		}
	}
	rec(0)
	if count != 262144 {
		t.Fatalf("visited %d configurations", count)
	}
}
