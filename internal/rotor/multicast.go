package rotor

import "math/bits"

// Multicast support (§8.6): "allowing a single Ingress Processor to send
// data to several Egress Processors simultaneously. This modification is
// trivial considering the ease of programmability of the switch fabric" —
// the static crossbar replicates a word to several outputs in one cycle
// (fanout-splitting), so a multicast stream costs its clockwise arc once
// and is peeled off at every member tile.

// McastReq is a set of ring positions as a bitmask: a multicast
// request's egress ports (a singleton is unicast), or the egresses and
// ring links a walk has claimed.
type McastReq uint32

// McastTo builds a request for the given egress ports.
func McastTo(ports ...int) McastReq {
	var m McastReq
	for _, p := range ports {
		m |= 1 << p
	}
	return m
}

// Has reports whether port p is in the set.
func (m McastReq) Has(p int) bool { return m>>p&1 == 1 }

// Count returns the fanout.
func (m McastReq) Count() int { return bits.OnesCount32(uint32(m)) }

// AllocateMixed runs the token walk over member bitmasks — the §8.6
// extension carried to full fidelity. A singleton mask is ordinary
// unicast and may take either ring direction (shortest arc first,
// exactly like Allocate); a multi-member mask travels clockwise only,
// fanout-splitting at every served member. Service is incremental:
// members whose egress is taken, or beyond the reachable clockwise arc,
// wait for a later quantum.
func AllocateMixed(reqs []McastReq, token int) Allocation {
	return AllocateFT(reqs, token, nil, -1, -1)
}
