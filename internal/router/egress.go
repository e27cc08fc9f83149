package router

import (
	"slices"

	"repro/internal/raw"
)

// egressFW is the Egress Processor firmware (§4.2/§4.3): complete packets
// cut through the switch straight to the output pins at one word per
// cycle; fragments of large packets are buffered in local data memory
// (two cycles per word, §4.4) until the last fragment arrives, then the
// reassembled packet streams out. Padding words the fabric used to keep
// granted streams in lockstep are drained and discarded here.
type egressFW struct {
	rt   *Router
	port int
	prog *EgressProgram

	// Reassembly buffers, one per source port.
	buf  [4][]raw.Word
	hdrW raw.Word
	// frag buffers the fragment the cipher transforms.
	frag []raw.Word
}

func (f *egressFW) Refill(e *raw.Exec) {
	// Wait for the next egress header (stalls across idle quanta).
	e.WriteSwitchPC(f.prog.Hdr)
	e.Recv(&f.hdrW)
	e.Then(func(e *raw.Exec) {
		src, fragLen, l, last := DecodeEgressHdr(f.hdrW)
		if src < 0 || src > 3 || fragLen <= 0 || l < fragLen {
			panic("router: corrupt egress header")
		}
		if EgressHdrFirstOf(f.hdrW) && len(f.buf[src]) > 0 {
			// A packet's first fragment found stale fragments from the
			// same source: that packet was aborted upstream (underrun
			// timeout or degraded-mode reset) and will never complete.
			f.buf[src] = f.buf[src][:0]
		}
		pad := l - fragLen
		whole := last && len(f.buf[src]) == 0
		switch {
		case whole && f.rt.cfg.Crypto:
			// §8.3 computation-in-fabric: the payload was transformed in
			// the crossbar; the egress decrypts while forwarding
			// (Forward at one word per cycle plus the per-word cipher
			// cost modeled in CryptoCyclesPerWord).
			f.cryptoForward(e, fragLen, pad)
		case whole:
			// Cut-through: fragment = whole packet (the fast path behind
			// the paper's peak numbers). The pc goes first: the switch
			// consumes the count register only once it is inside the
			// routine, so pc-then-counts is the deadlock-free order.
			e.WriteSwitchPC(f.prog.Cut)
			e.WriteSwitchCount(raw.Word(fragLen))
			e.WriteSwitchCount(raw.Word(pad))
			e.RecvN(pad, 1, nil) // discard padding
			e.WaitSwitchDone(nil)
			e.Then(func(*raw.Exec) { f.rt.stats.PktsOut[f.port]++ })
		default:
			// Reassembly path: buffer the fragment (2 cycles/word into
			// local data memory, §4.4), stream the packet once complete.
			// The padding past fragLen is discarded.
			held := len(f.buf[src])
			f.buf[src] = slices.Grow(f.buf[src], fragLen)[:held+fragLen]
			e.WriteSwitchPC(f.prog.Asm)
			e.WriteSwitchCount(raw.Word(l))
			e.RecvN(l, 2, f.buf[src][held:])
			e.WaitSwitchDone(nil)
			if last {
				e.Then(func(e *raw.Exec) {
					total := len(f.buf[src])
					e.WriteSwitchPC(f.prog.Out)
					e.WriteSwitchCount(raw.Word(total))
					e.SendN(total, f.buf[src])
					e.WaitSwitchDone(nil)
					e.Then(func(*raw.Exec) {
						f.buf[src] = f.buf[src][:0]
						f.rt.stats.PktsOut[f.port]++
						f.rt.stats.Reassembled[f.port]++
					})
				})
			}
		}
	})
}

// resetForDegrade discards all in-flight reassembly state. The packets it
// abandons were fully streamed into the fabric, so they are accounted in
// Stats.FabricLost by the degrade procedure that calls this.
func (f *egressFW) resetForDegrade() {
	for i := range f.buf {
		f.buf[i] = f.buf[i][:0]
	}
	f.hdrW = 0
}

// quiet reports whether no partial packet sits in the reassembly
// buffers. Read between cycles by the restore quiescence check.
func (f *egressFW) quiet() bool {
	for i := range f.buf {
		if len(f.buf[i]) > 0 {
			return false
		}
	}
	return true
}

// cryptoForward receives the fragment through the processor, applies the
// per-word stream cipher to the payload (the IP header stays in the
// clear so the next hop can route), and forwards to the pin.
func (f *egressFW) cryptoForward(e *raw.Exec, fragLen, pad int) {
	e.WriteSwitchPC(f.prog.Forward)
	e.WriteSwitchCount(raw.Word(fragLen + pad))
	e.WriteSwitchCount(raw.Word(fragLen))
	// Receive fragLen+pad words, transform, send fragLen onward.
	words := slices.Grow(f.frag[:0], fragLen)[:fragLen]
	f.frag = words
	e.RecvN(fragLen+pad, 1, words)
	e.OnDone(func() {
		for i := 5; i < fragLen; i++ { // payload words only
			words[i] ^= CryptoMask(f.rt.cfg.CryptoKey, i-5)
		}
	})
	e.Compute(CryptoCyclesPerWord * fragLen)
	e.SendN(fragLen, words)
	e.WaitSwitchDone(nil)
	e.Then(func(*raw.Exec) { f.rt.stats.PktsOut[f.port]++ })
}

// CryptoMask is the deterministic keystream of the §8.3 demonstration
// service: a xorshift word stream seeded by the key and the payload word
// index.
func CryptoMask(key uint32, i int) raw.Word {
	x := uint64(key)<<32 | uint64(uint32(i)*2654435761+1)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return raw.Word(x)
}
