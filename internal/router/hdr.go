package router

import (
	"repro/internal/raw"
	"repro/internal/rotor"
)

// Local header word (ingress → crossbar, rotated to all crossbar tiles).
// The §5.2 "packet headers ... contain output port numbers prepared by the
// Ingress Processors after route lookup", extended with the fragment
// length (so every crossbar processor can compute the quantum's streaming
// length L) and flags:
//
//	bits  [3:0]  dest+1 (0 = empty input)
//	bit   [4]    last fragment of its packet
//	bits  [17:8] fragment length in words (1..1023)
//	bits  [20:18] priority (QoS extension, §8.7)
//	bit   [21]   compute-in-fabric request (§8.3)
const (
	lhDestMask   = 0xf
	lhLastBit    = 1 << 4
	lhLenShift   = 8
	lhLenMask    = 0x3ff
	lhPrioShift  = 18
	lhCryptoBit  = 1 << 21
	lhMcastBit   = 1 << 22
	lhFirstBit   = 1 << 23
	lhMaskShift  = 24
	lhMemberMask = 0xf
)

// LocalHdr builds a local header word.
func LocalHdr(dst, fragLen int, last bool) raw.Word {
	w := raw.Word(dst+1) | raw.Word(fragLen&lhLenMask)<<lhLenShift
	if last {
		w |= lhLastBit
	}
	return w
}

// LocalHdrEmpty is the empty-input header.
const LocalHdrEmpty raw.Word = 0

// LocalHdrCrypto marks the fragment for in-fabric encryption (§8.3).
func LocalHdrCrypto(w raw.Word) raw.Word { return w | lhCryptoBit }

// LocalHdrPrio sets the 3-bit priority class (§8.7); the crossbar's
// arbitration walk serves higher classes first.
func LocalHdrPrio(w raw.Word, prio uint8) raw.Word {
	return w | raw.Word(prio&0x7)<<lhPrioShift
}

// LocalHdrPrioOf extracts the priority class.
func LocalHdrPrioOf(w raw.Word) uint8 { return uint8(w >> lhPrioShift & 0x7) }

// LocalHdrFirst marks the fragment as its packet's first; the crossbar
// relays the mark to the egress, which uses it to discard stale
// reassembly state left by an aborted packet from the same source.
func LocalHdrFirst(w raw.Word) raw.Word { return w | lhFirstBit }

// LocalHdrFirstOf reports the first-fragment mark.
func LocalHdrFirstOf(w raw.Word) bool { return w&lhFirstBit != 0 }

// DecodeLocalHdr splits a local header word.
func DecodeLocalHdr(w raw.Word) (dst int, fragLen int, last bool, crypto bool) {
	return int(w&lhDestMask) - 1,
		int(w >> lhLenShift & lhLenMask),
		w&lhLastBit != 0,
		w&lhCryptoBit != 0
}

// LocalHdrMcast builds a multicast header (§8.6): the fragment goes to
// every member of the mask in one fanout-split stream.
func LocalHdrMcast(members rotor.McastReq, fragLen int, last bool) raw.Word {
	w := lhMcastBit | raw.Word(members&lhMemberMask)<<lhMaskShift |
		raw.Word(fragLen&lhLenMask)<<lhLenShift
	if last {
		w |= lhLastBit
	}
	return w
}

// McastReqOf converts a local header to the allocation walk's request:
// a member mask for multicast headers, a singleton for unicast, zero for
// empty.
func McastReqOf(w raw.Word) rotor.McastReq {
	if w&lhMcastBit != 0 {
		return rotor.McastReq(w >> lhMaskShift & lhMemberMask)
	}
	d := int(w&lhDestMask) - 1
	if d < 0 {
		return 0
	}
	return rotor.McastTo(d)
}

// Grant word (crossbar → ingress):
//
//	bit  [0]     granted
//	bits [17:8]  L, the quantum streaming length in words
//	bits [23:20] served member mask (multicast)
const (
	grGrantBit   = 1 << 0
	grLenShift   = 8
	grLenMask    = 0x3ff
	grMaskShift  = 20
	grMemberMask = 0xf
)

// GrantWord builds a grant word.
func GrantWord(granted bool, l int) raw.Word {
	w := raw.Word(l&grLenMask) << grLenShift
	if granted {
		w |= grGrantBit
	}
	return w
}

// GrantWordMcast builds a grant word carrying the served member mask.
func GrantWordMcast(served rotor.McastReq, l int) raw.Word {
	w := GrantWord(served != 0, l)
	return w | raw.Word(served&grMemberMask)<<grMaskShift
}

// DecodeGrant splits a grant word.
func DecodeGrant(w raw.Word) (granted bool, l int) {
	return w&grGrantBit != 0, int(w >> grLenShift & grLenMask)
}

// GrantServed extracts the served member mask of a multicast grant.
func GrantServed(w raw.Word) rotor.McastReq {
	return rotor.McastReq(w >> grMaskShift & grMemberMask)
}

// Egress header word (crossbar → egress, ahead of the body):
//
//	bits [3:0]   source port+1
//	bit  [4]     last fragment
//	bit  [5]     first fragment
//	bits [17:8]  fragment length (payload words that matter)
//	bits [27:18] L (total words streamed, fragLen + padding)
const (
	ehSrcMask  = 0xf
	ehLastBit  = 1 << 4
	ehFirstBit = 1 << 5
	ehLenShift = 8
	ehLenMask  = 0x3ff
	ehLShift   = 18
	ehLMask    = 0x3ff
)

// EgressHdr builds an egress header word.
func EgressHdr(src, fragLen, l int, last bool) raw.Word {
	w := raw.Word(src+1) | raw.Word(fragLen&ehLenMask)<<ehLenShift |
		raw.Word(l&ehLMask)<<ehLShift
	if last {
		w |= ehLastBit
	}
	return w
}

// EgressHdrFirst marks an egress header's fragment as its packet's first.
func EgressHdrFirst(w raw.Word) raw.Word { return w | ehFirstBit }

// EgressHdrFirstOf reports the first-fragment mark.
func EgressHdrFirstOf(w raw.Word) bool { return w&ehFirstBit != 0 }

// DecodeEgressHdr splits an egress header word.
func DecodeEgressHdr(w raw.Word) (src, fragLen, l int, last bool) {
	return int(w&ehSrcMask) - 1,
		int(w >> ehLenShift & ehLenMask),
		int(w >> ehLShift & ehLMask),
		w&ehLastBit != 0
}
