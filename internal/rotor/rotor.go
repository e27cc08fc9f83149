// Package rotor implements the paper's primary contribution: the Rotating
// Crossbar — an efficient mapping of a router's dynamic switch-fabric
// communication pattern onto the compile-time static interconnect of the
// Raw processor's crossbar tiles (Chapters 5 and 6).
//
// The four Crossbar Processors form a ring with one full-duplex static
// link between neighbors (clockwise and counterclockwise channels). Each
// routing quantum, every crossbar tile holds at most one local packet
// header naming an egress port; a token — implemented as a synchronous
// counter local to every tile, never actually transmitted — names the
// master tile. All tiles exchange headers, then each runs the identical,
// deterministic allocation walk: starting at the master and proceeding
// downstream, each requester claims its egress port and a clockwise ring
// path if free, falling back to the counterclockwise path, else waiting
// for the next quantum. Because every tile computes the same allocation
// from the same inputs, no grants need to be communicated, and because the
// token advances each quantum, no input starves (§5.4) and no static
// network deadlock is possible (§5.5).
//
// The per-tile view of an allocation — which client (nothing, the local
// ingress, the clockwise-upstream stream, or the counterclockwise-upstream
// stream) feeds each of the tile's three servers (the egress link, the
// clockwise-downstream link, the counterclockwise-downstream link) — is
// the minimized configuration space of §6.2 / Table 6.1: the raw space of
// |Hdr|⁴ × |Token| = 5⁴×4 = 2,500 global configurations collapses to 32
// distinct per-tile configurations, small enough for a switch-code jump
// table in the 8,192-word tile memories.
package rotor

import (
	"fmt"
	"math/bits"
)

// DefaultPorts is the paper's 4x4 router port count.
const DefaultPorts = 4

// Client identifies who feeds one of a crossbar tile's servers during the
// body phase (Table 6.1: clients are 0, in, cwprev, ccwprev).
type Client uint8

// The four clients of Table 6.1.
const (
	ClNone    Client = iota // server idle
	ClIn                    // the tile's own ingress processor
	ClCWPrev                // the stream arriving on the clockwise ring
	ClCCWPrev               // the stream arriving on the counterclockwise ring
)

// String returns the thesis's client names.
func (c Client) String() string {
	switch c {
	case ClNone:
		return "0"
	case ClIn:
		return "in"
	case ClCWPrev:
		return "cwprev"
	case ClCCWPrev:
		return "ccwprev"
	}
	return fmt.Sprintf("Client(%d)", uint8(c))
}

// TileConfig is one entry of the minimized configuration space: the client
// of each server (out, cwnext, ccwnext — Table 6.1), the expansion numbers
// (ring-hop distance from each stream's origin, which the switch code
// generator needs to software-pipeline route activation, §6.2), and the
// §6.2 boolean that is true when the tile's ingress cannot send this
// quantum.
type TileConfig struct {
	Out     Client
	CWNext  Client
	CCWNext Client
	// OutHops/CWHops/CCWHops are the expansion numbers: how many ring
	// hops the stream feeding that server has traveled when it reaches
	// this tile (0 for ClIn, else ≥ 1).
	OutHops   uint8
	CWHops    uint8
	CCWHops   uint8
	InBlocked bool
}

// Active reports whether the tile moves any words this quantum.
func (t TileConfig) Active() bool {
	return t.Out != ClNone || t.CWNext != ClNone || t.CCWNext != ClNone
}

// String renders the config in Table 6.1 vocabulary.
func (t TileConfig) String() string {
	blocked := ""
	if t.InBlocked {
		blocked = " in-blocked"
	}
	return fmt.Sprintf("out<-%s/%d cwnext<-%s/%d ccwnext<-%s/%d%s",
		t.Out, t.OutHops, t.CWNext, t.CWHops, t.CCWNext, t.CCWHops, blocked)
}

// Hdr is a crossbar tile's local header for a quantum: HdrEmpty when its
// ingress queue is empty, otherwise HdrTo(d) naming egress port d. With
// four ports |Hdr| = 5 (§6.1).
type Hdr uint8

// HdrEmpty is the empty-input header.
const HdrEmpty Hdr = 0

// HdrTo returns the header requesting egress port d.
func HdrTo(d int) Hdr { return Hdr(d + 1) }

// Dest returns the egress port, or -1 for HdrEmpty.
func (h Hdr) Dest() int { return int(h) - 1 }

// GlobalConfig is one point of the §6.1 configuration space.
type GlobalConfig struct {
	Hdrs  []Hdr // one per crossbar tile
	Token int
}

// Transfer is one granted input-to-output stream.
type Transfer struct {
	Src, Dst int
	// CW is the ring direction the stream takes.
	CW bool
	// Hops is the ring distance traveled (0 when Src's own egress is the
	// destination).
	Hops int
}

// Allocation is the deterministic outcome of the token walk for one
// global configuration.
type Allocation struct {
	// Transfers are the granted streams, one per served egress: a
	// multicast stream records one transfer per member it reaches, and
	// painting them reproduces its clockwise arc.
	Transfers []Transfer
	// Granted[i] reports whether input i sends this quantum.
	Granted []bool
	// Served[i] is the subset of input i's request its stream reaches
	// this quantum (fanout-splitting: members whose egress is taken or
	// beyond the free arc wait for a later quantum).
	Served []McastReq
	// OutSrc[d] is the input whose stream feeds egress d (-1 when idle)
	// — the egress-header information every crossbar processor needs.
	OutSrc []int
	// Tiles[i] is crossbar tile i's minimized per-tile configuration.
	Tiles []TileConfig
}

// Allocate runs the Rotating Crossbar allocation walk (§5.1–§5.2) for an
// n-tile ring. All tiles run this same function on the same inputs, which
// is what makes the schedule distributed yet conflict-free.
func Allocate(g GlobalConfig) Allocation { return AllocateChannels(g, 1) }

// AllocateChannels is Allocate with ch parallel ring channel pairs — the
// §5.3 second-static-network ablation. A transfer blocked on channel 0's
// clockwise and counterclockwise rings retries on channel 1, and so on.
// Egress ports remain single-channel (an Egress Processor consumes one
// word per cycle no matter how many networks feed the crossbar), which is
// the topological reason §5.3 finds the second network does not help.
func AllocateChannels(g GlobalConfig, ch int) Allocation {
	n := len(g.Hdrs)
	reqs := make([]McastReq, n)
	for i, h := range g.Hdrs {
		if d := h.Dest(); d >= n {
			panic(fmt.Sprintf("rotor: header at tile %d names egress %d of %d", i, d, n))
		} else if d >= 0 {
			reqs[i] = McastTo(d)
		}
	}
	return walk(reqs, visitOrder(n, g.Token, nil, -1), 0, 0, ch)
}

// AllocateFT is the walk every crossbar processor runs each quantum, on
// the fault-tolerant ring. Requests are member masks (a singleton is
// unicast). prio gives each input's class (§8.7: "letting Ingress
// Processors include priority information into the local header, and
// adding the arbitration code"): the walk serves classes strictly high
// to low, token order within a class, so every tile still computes the
// same schedule; nil prio, like all-zero classes, walks token order
// alone, as §8.6 mode must, since its jump table has no slots for
// prioritized orders. Strict priority protects high-class latency and
// bandwidth; a saturating high class can starve lower ones (weighted
// tokens are the fairness-preserving alternative).
//
// dead (-1 for none) is a crossbar tile masked out of the fabric: the
// order skips it (the token rotation skips the hole), its egress and
// both its outgoing ring links start claimed, so any route ending at it
// hits the egress claim and any route crossing it hits a busy link, and
// the unmodified path search routes around the hole (the long way when
// the short arc crosses it) or blocks the requester, exactly as
// contention would.
//
// joining (-1 for none) is a tile on probation after re-admission: it is
// back in rotation and holds the token, but its egress starts claimed,
// so no stream reaches it until probation ends, while its ring links
// stay free to relay its neighbors' streams. A tile that is not
// actually healthy again can then only wedge the header exchange, which
// the watchdog catches and re-degrades.
//
// Neither a dead nor a joining tile may request a transfer.
func AllocateFT(reqs []McastReq, token int, prio []uint8, dead, joining int) Allocation {
	n := len(reqs)
	if prio != nil && len(prio) != n {
		panic("rotor: priority vector must match ring size")
	}
	var out, cut McastReq
	if dead >= 0 {
		if dead >= n {
			panic("rotor: dead tile out of range")
		}
		if reqs[dead] != 0 {
			panic("rotor: dead tile cannot request a transfer")
		}
		out |= 1 << dead
		cut |= 1 << dead
	}
	if joining >= 0 {
		if joining >= n {
			panic("rotor: joining tile out of range")
		}
		if reqs[joining] != 0 {
			panic("rotor: re-admitted tile cannot request a transfer during probation")
		}
		out |= 1 << joining
	}
	return walk(reqs, visitOrder(n, token, prio, dead), out, cut, 1)
}

// visitOrder is the walk's visiting order on an n-tile ring: classes
// strictly high to low (one class when prio is nil), token order within
// a class, without tile skip (-1 for none).
func visitOrder(n, token int, prio []uint8, skip int) []int {
	if token < 0 || token >= n {
		panic("rotor: token out of range")
	}
	var top uint8
	for _, p := range prio {
		top = max(top, p)
	}
	order := make([]int, 0, n)
	for p := int(top); p >= 0; p-- {
		for k := 0; k < n; k++ {
			if i := (token + k) % n; i != skip && (prio == nil || int(prio[i]) == p) {
				order = append(order, i)
			}
		}
	}
	return order
}

// walk is the Rotating Crossbar's reservation walk (§5.2), the one every
// allocator runs. Its parameters are data: the visiting order, the
// egresses (out) and the tiles whose outgoing ring links (cut) are
// claimed before the walk, and the number of ring channel pairs. Each
// input in order claims what its member mask can still reach; an input
// left with nothing is blocked and waits for the next quantum.
func walk(reqs []McastReq, order []int, out, cut McastReq, ch int) Allocation {
	n := len(reqs)
	if n < 2 || n > 32 {
		panic("rotor: ring needs two to 32 tiles")
	}
	for i, m := range reqs {
		if m>>n != 0 {
			panic(fmt.Sprintf("rotor: request at tile %d names an egress beyond %d", i, n))
		}
	}
	r := newRing(n, ch, out, cut)
	a := Allocation{
		Transfers: make([]Transfer, 0, n),
		Granted:   make([]bool, n),
		Served:    make([]McastReq, n),
		OutSrc:    make([]int, n),
		Tiles:     make([]TileConfig, n),
	}
	for d := range a.OutSrc {
		a.OutSrc[d] = -1
	}
	for _, i := range order {
		if reqs[i] == 0 {
			continue
		}
		served, cw := r.claim(i, reqs[i])
		if served == 0 {
			a.Tiles[i].InBlocked = true
			continue
		}
		a.Granted[i], a.Served[i] = true, served
		for h, left := 0, served; left != 0; h++ {
			if d := hop(i, h, cw, n); left.Has(d) {
				left &^= 1 << d
				a.OutSrc[d] = i
				a.Transfers = append(a.Transfers, Transfer{Src: i, Dst: d, CW: cw, Hops: h})
			}
		}
	}
	// Per-tile switch configurations are only well defined for the single
	// physical network (two channels can pass two streams through one
	// tile in the same direction); the ablation consumes Granted only.
	if ch == 1 {
		for _, tr := range a.Transfers {
			paint(a.Tiles, tr, n)
		}
	}
	return a
}

// ring is the claim state a walk threads through its visiting order:
// the egresses claimed so far, and per channel pair c the clockwise
// (links[2c]) and counterclockwise (links[2c+1]) ring links claimed, bit
// j standing for the link leaving tile j.
type ring struct {
	n     int
	out   McastReq
	links []McastReq
}

// newRing returns the claim state of an n-tile ring with ch channel
// pairs before the walk: the egresses in out and both links leaving
// each tile in cut start claimed.
func newRing(n, ch int, out, cut McastReq) *ring {
	r := &ring{n: n, out: out, links: make([]McastReq, 2*ch)}
	for c := range r.links {
		r.links[c] = cut
	}
	return r
}

// claim is the walk's step: it reserves what input i's request can
// reach and returns the members served and the direction their stream
// takes. Members whose egress is claimed wait. A singleton is unicast:
// it takes the shorter arc, clockwise on ties, falling back to the other
// direction (§5.2), on each channel pair in turn. A wider mask travels
// clockwise only and fanout-splits at every free member within the free
// prefix of the links leaving the source (§8.6).
func (r *ring) claim(i int, req McastReq) (McastReq, bool) {
	free := req &^ r.out
	if free == 0 {
		return 0, false
	}
	dirs := []pathOption{{cw: true, hops: r.n - 1}}
	if req.Count() == 1 {
		o := directionOrder(i, bits.TrailingZeros32(uint32(req)), r.n)
		dirs = o[:]
	}
	for c := 0; c < len(r.links); c += 2 {
		for _, o := range dirs {
			busy := &r.links[c]
			if !o.cw {
				busy = &r.links[c+1]
			}
			// Travel outward from the source: each tile reached may be
			// served, and a claimed link leaving it ends the arc.
			var served McastReq
			far := 0
			for h := 0; h <= o.hops; h++ {
				d := hop(i, h, o.cw, r.n)
				if free.Has(d) {
					served |= 1 << d
					far = h
				}
				if busy.Has(d) {
					break
				}
			}
			if served != 0 {
				claimPath(busy, i, far, o.cw, r.n)
				r.out |= served
				return served, o.cw
			}
		}
	}
	return 0, false
}

// pathOption is one candidate ring route.
type pathOption struct {
	cw   bool
	hops int
}

// directionOrder returns the candidate directions from tile i to egress d
// in preference order: shorter ring distance first, clockwise on ties.
// Preferring the shorter arc is what makes every conflict-free
// destination permutation routable in a single quantum on a single static
// network — the topological sufficiency property of §5.3. (A greedy
// clockwise-first walk can burn three links on a distance-1 destination
// and strand later requesters; see TestPermutationsAlwaysRoute.)
func directionOrder(i, d, n int) [2]pathOption {
	cwHops := (d - i + n) % n
	ccwHops := (i - d + n) % n
	if cwHops <= ccwHops {
		return [2]pathOption{{true, cwHops}, {false, ccwHops}}
	}
	return [2]pathOption{{false, ccwHops}, {true, cwHops}}
}

// hop returns the tile h hops (0 <= h <= n) from tile i in one ring
// direction.
func hop(i, h int, cw bool, n int) int {
	if !cw {
		h = n - h
	}
	if i += h; i >= n {
		i -= n
	}
	return i
}

// claimPath claims the h consecutive ring links leaving tile i in the
// given direction.
func claimPath(busy *McastReq, i, h int, cw bool, n int) {
	for m := 0; m < h; m++ {
		*busy |= 1 << hop(i, m, cw, n)
	}
}

// paint writes one transfer into the per-tile configurations: the source
// feeds the stream onto the ring, each tile it crosses relays it on the
// same direction's next link, and the destination's egress takes it.
func paint(tiles []TileConfig, tr Transfer, n int) {
	prev := ClCWPrev
	if !tr.CW {
		prev = ClCCWPrev
	}
	cl := ClIn
	for m := 0; m < tr.Hops; m++ {
		t := &tiles[hop(tr.Src, m, tr.CW, n)]
		if tr.CW {
			t.CWNext, t.CWHops = cl, uint8(m)
		} else {
			t.CCWNext, t.CCWHops = cl, uint8(m)
		}
		cl = prev
	}
	tiles[tr.Dst].Out, tiles[tr.Dst].OutHops = cl, uint8(tr.Hops)
}

// NextToken advances the token downstream (clockwise), as §5.2's "the
// token is passed to the next downstream crossbar tile".
func NextToken(token, n int) int { return (token + 1) % n }
