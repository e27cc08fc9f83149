package ip_test

import (
	"testing"
	"testing/quick"

	"repro/internal/ip"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	h := ip.Header{
		TOS:      0x10,
		TotalLen: 1024,
		ID:       0x1234,
		Flags:    0x2,
		FragOff:  100,
		TTL:      64,
		Protocol: ip.ProtoTCP,
		Src:      ip.AddrFrom(10, 1, 2, 3),
		Dst:      ip.AddrFrom(192, 168, 7, 9),
	}
	w := h.Marshal()
	got, err := ip.Unmarshal(w[:])
	if err != nil {
		t.Fatal(err)
	}
	got.Checksum = 0
	want := h
	want.Checksum = 0
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	h := ip.Header{TotalLen: 64, TTL: 10, Src: 1, Dst: 2}
	w := h.Marshal()
	if ip.ChecksumWords(w[:]) != 0 {
		t.Fatal("fresh header does not verify")
	}
	w[3] ^= 0x00010000
	if _, err := ip.Unmarshal(w[:]); err != ip.ErrChecksum {
		t.Fatalf("corrupted header error = %v, want ErrChecksum", err)
	}
}

func TestUnmarshalRejects(t *testing.T) {
	h := ip.Header{TotalLen: 40, TTL: 4}
	w := h.Marshal()

	v6 := w
	v6[0] = v6[0]&^(0xf<<28) | 6<<28
	if _, err := ip.Unmarshal(v6[:]); err != ip.ErrVersion {
		t.Errorf("v6 header error = %v, want ErrVersion", err)
	}
	if _, err := ip.Unmarshal(w[:2]); err != ip.ErrTruncated {
		t.Errorf("short header error = %v, want ErrTruncated", err)
	}
	opt := h.Marshal()
	opt[0] = opt[0]&^(0xf<<24) | 6<<24
	if _, err := ip.Unmarshal(opt[:]); err != ip.ErrOptions {
		t.Errorf("options header error = %v, want ErrOptions", err)
	}
}

// TestDecrementTTLIncremental checks RFC 1624 incremental update against a
// full recompute, across all TTLs.
func TestDecrementTTLIncremental(t *testing.T) {
	for ttl := 2; ttl <= 255; ttl++ {
		h := ip.Header{TotalLen: 100, TTL: uint8(ttl), Protocol: ip.ProtoUDP,
			Src: ip.AddrFrom(1, 2, 3, 4), Dst: ip.AddrFrom(5, 6, 7, 8), ID: uint16(ttl * 7)}
		w := h.Marshal()
		if err := ip.DecrementTTL(w[:]); err != nil {
			t.Fatalf("ttl %d: %v", ttl, err)
		}
		if ip.ChecksumWords(w[:]) != 0 {
			t.Fatalf("ttl %d: incremental checksum invalid", ttl)
		}
		got, err := ip.Unmarshal(w[:])
		if err != nil {
			t.Fatalf("ttl %d: %v", ttl, err)
		}
		if got.TTL != uint8(ttl-1) {
			t.Fatalf("ttl %d: decremented to %d", ttl, got.TTL)
		}
	}
}

func TestDecrementTTLExpiry(t *testing.T) {
	h := ip.Header{TotalLen: 40, TTL: 1}
	w := h.Marshal()
	if err := ip.DecrementTTL(w[:]); err != ip.ErrTTL {
		t.Fatalf("err = %v, want ErrTTL", err)
	}
}

// TestHeaderProperty quick-checks that any header round-trips and
// checksums to zero.
func TestHeaderProperty(t *testing.T) {
	f := func(tos uint8, tl, id uint16, flags uint8, fo uint16, ttl, proto uint8, src, dst uint32) bool {
		h := ip.Header{
			TOS: tos, TotalLen: tl, ID: id,
			Flags: flags & 0x7, FragOff: fo & 0x1fff,
			TTL: ttl, Protocol: proto,
			Src: ip.Addr(src), Dst: ip.Addr(dst),
		}
		w := h.Marshal()
		if ip.ChecksumWords(w[:]) != 0 {
			return false
		}
		got, err := ip.Unmarshal(w[:])
		if err != nil {
			return false
		}
		got.Checksum = 0
		want := h
		want.Checksum = 0
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	for _, size := range []int{64, 128, 256, 512, 1024} {
		p := ip.NewPacket(ip.AddrFrom(10, 0, 0, 1), ip.AddrFrom(20, 0, 0, 2), 64, size, 99)
		w := p.Words()
		if len(w) != size/4 {
			t.Fatalf("size %d: %d words on wire, want %d", size, len(w), size/4)
		}
		got, err := ip.ParsePacket(w)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got.Header.TotalLen != uint16(size) {
			t.Fatalf("size %d: TotalLen %d", size, got.Header.TotalLen)
		}
		for i := range p.Payload {
			if got.Payload[i] != p.Payload[i] {
				t.Fatalf("size %d: payload word %d corrupted", size, i)
			}
		}
	}
}

func TestMinimumPacket(t *testing.T) {
	p := ip.NewPacket(1, 2, 3, 8, 0) // below header size: clamped
	if p.LenWords() != ip.HeaderWords {
		t.Fatalf("minimum packet is %d words, want %d", p.LenWords(), ip.HeaderWords)
	}
}

// TestFrameWords pins the framing rule: TotalLen rounded up to words,
// never less than the header. A header claiming fewer bytes than itself
// parses as a bare header instead of slicing past its own end.
func TestFrameWords(t *testing.T) {
	for _, c := range []struct {
		totalLen uint16
		want     int
	}{{0, 5}, {19, 5}, {20, 5}, {21, 6}, {64, 16}, {1023, 256}, {1024, 256}} {
		h := ip.Header{TotalLen: c.totalLen}
		if got := h.FrameWords(); got != c.want {
			t.Errorf("TotalLen %d: %d words, want %d", c.totalLen, got, c.want)
		}
	}
	h := ip.Header{TotalLen: 8, TTL: 64}
	w := h.Marshal()
	p, err := ip.ParsePacket(append(w[:], 0xdead))
	if err != nil || len(p.Payload) != 0 {
		t.Fatalf("short TotalLen: payload %v, err %v; want a bare header", p.Payload, err)
	}
}

func TestAddrString(t *testing.T) {
	if s := ip.AddrFrom(192, 168, 0, 1).String(); s != "192.168.0.1" {
		t.Fatalf("got %q", s)
	}
}
