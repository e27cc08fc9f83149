// Package ip implements the IPv4 packet plumbing the Raw router's ingress
// and egress processors perform (§4.2 of the paper): header parsing and
// construction on 32-bit words, the Internet checksum with incremental
// update for the TTL decrement, and packet serialization to the word
// streams that cross the chip's pins.
package ip

import (
	"errors"
	"fmt"
)

// HeaderWords is the length of an IPv4 header without options, in 32-bit
// words. The router forwards only option-less headers on its fast path.
const HeaderWords = 5

// HeaderBytes is HeaderWords in bytes.
const HeaderBytes = HeaderWords * 4

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFrom builds an address from dotted-quad components.
func AddrFrom(a, b, c, d byte) Addr {
	return Addr(a)<<24 | Addr(b)<<16 | Addr(c)<<8 | Addr(d)
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Header is a parsed IPv4 header (no options).
type Header struct {
	TOS      uint8
	TotalLen uint16 // header + payload, bytes
	ID       uint16
	Flags    uint8  // 3 bits
	FragOff  uint16 // 13 bits, in 8-byte units
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst Addr
}

// Common protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Errors returned by header validation.
var (
	ErrVersion   = errors.New("ip: not an IPv4 header")
	ErrOptions   = errors.New("ip: headers with options are not fast-path")
	ErrChecksum  = errors.New("ip: header checksum mismatch")
	ErrTruncated = errors.New("ip: truncated packet")
	ErrTTL       = errors.New("ip: TTL expired")
)

// Marshal encodes the header into 5 words with a freshly computed
// checksum. Word layout is big-endian within each word, matching network
// byte order read 32 bits at a time.
func (h *Header) Marshal() [HeaderWords]uint32 {
	var w [HeaderWords]uint32
	const versionIHL = 4<<4 | HeaderWords // version 4, IHL 5
	w[0] = uint32(versionIHL)<<24 | uint32(h.TOS)<<16 | uint32(h.TotalLen)
	w[1] = uint32(h.ID)<<16 | uint32(h.Flags)<<13 | uint32(h.FragOff&0x1fff)
	w[2] = uint32(h.TTL)<<24 | uint32(h.Protocol)<<16 // checksum zero
	w[3] = uint32(h.Src)
	w[4] = uint32(h.Dst)
	ck := ChecksumWords(w[:])
	w[2] |= uint32(ck)
	return w
}

// Unmarshal parses and validates 5 header words. It checks the version,
// IHL, and checksum but not the TTL (forwarding decides that). On a
// validation error the decoded fields are still returned (best effort):
// a router that drops a corrupt packet still needs TotalLen to drain the
// rest of it off the line.
func Unmarshal(w []uint32) (Header, error) {
	var h Header
	if len(w) < HeaderWords {
		return h, ErrTruncated
	}
	var err error
	switch {
	case w[0]>>28 != 4:
		err = ErrVersion
	case w[0]>>24&0xf != HeaderWords:
		err = ErrOptions
	case ChecksumWords(w[:HeaderWords]) != 0:
		err = ErrChecksum
	}
	h.TOS = uint8(w[0] >> 16)
	h.TotalLen = uint16(w[0])
	h.ID = uint16(w[1] >> 16)
	h.Flags = uint8(w[1] >> 13 & 0x7)
	h.FragOff = uint16(w[1] & 0x1fff)
	h.TTL = uint8(w[2] >> 24)
	h.Protocol = uint8(w[2] >> 16)
	h.Checksum = uint16(w[2])
	h.Src = Addr(w[3])
	h.Dst = Addr(w[4])
	return h, err
}

// ChecksumWords computes the Internet checksum (RFC 1071) over words,
// treating each as two big-endian 16-bit groups. Computing it over a
// header whose checksum field holds the transmitted value yields 0 for a
// valid header.
func ChecksumWords(w []uint32) uint16 {
	var sum uint32
	for _, x := range w {
		sum += x >> 16
		sum += x & 0xffff
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// DecrementTTL applies the router's per-hop header update to a marshaled
// header in place: TTL minus one with the checksum adjusted incrementally
// per RFC 1624 (the ingress processor does this without re-summing the
// header, §4.2). It returns ErrTTL when the TTL would reach zero.
func DecrementTTL(w []uint32) error {
	if len(w) < HeaderWords {
		return ErrTruncated
	}
	ttl := uint8(w[2] >> 24)
	if ttl <= 1 {
		return ErrTTL
	}
	// HC' = ~(~HC + ~m + m')  with m the 16-bit group containing the TTL.
	oldGroup := w[2] >> 16
	newGroup := oldGroup - 0x100 // TTL occupies the high byte
	hc := w[2] & 0xffff
	sum := (^hc)&0xffff + (^oldGroup)&0xffff + newGroup
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	w[2] = newGroup<<16 | (^sum)&0xffff
	return nil
}

// Packet is an IPv4 packet as the router sees it: a header and a payload
// padded to whole words.
type Packet struct {
	Header  Header
	Payload []uint32
}

// NewPacket builds a packet of totalBytes (header included, rounded up to
// a whole word) with a deterministic payload pattern seeded by id.
func NewPacket(src, dst Addr, ttl uint8, totalBytes int, id uint16) Packet {
	if totalBytes < HeaderBytes {
		totalBytes = HeaderBytes
	}
	payloadWords := (totalBytes - HeaderBytes + 3) / 4
	p := Packet{
		Header: Header{
			TotalLen: uint16(totalBytes),
			ID:       id,
			TTL:      ttl,
			Protocol: ProtoUDP,
			Src:      src,
			Dst:      dst,
		},
		Payload: make([]uint32, payloadWords),
	}
	seed := uint32(id)*2654435761 + uint32(dst)
	for i := range p.Payload {
		seed = seed*1664525 + 1013904223
		p.Payload[i] = seed
	}
	return p
}

// Words serializes the packet to the wire: 5 header words then payload.
func (p *Packet) Words() []uint32 {
	h := p.Header.Marshal()
	out := make([]uint32, 0, HeaderWords+len(p.Payload))
	out = append(out, h[:]...)
	return append(out, p.Payload...)
}

// FrameWords returns the length in words of the packet this header
// frames: TotalLen rounded up to whole words, never less than the
// header. Every reader that cuts packets out of a word stream uses it.
func (h *Header) FrameWords() int {
	return max((int(h.TotalLen)+3)/4, HeaderWords)
}

// LenWords returns the on-wire length in words.
func (p *Packet) LenWords() int { return HeaderWords + len(p.Payload) }

// ParsePacket deserializes a packet from words, validating the header.
func ParsePacket(w []uint32) (Packet, error) {
	h, err := Unmarshal(w)
	if err != nil {
		return Packet{}, err
	}
	want := h.FrameWords()
	if len(w) < want {
		return Packet{}, ErrTruncated
	}
	return Packet{Header: h, Payload: append([]uint32(nil), w[HeaderWords:want]...)}, nil
}
