package router_test

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func mcastConfig() router.Config {
	cfg := router.DefaultConfig()
	cfg.Multicast = true
	cfg.Groups = map[ip.Addr]uint8{
		ip.AddrFrom(224, 1, 1, 1): 0b1110, // ports 1,2,3
		ip.AddrFrom(224, 2, 2, 2): 0b0110, // ports 1,2
	}
	return cfg
}

// TestMcastCycleLevel (§8.6 end to end): one multicast packet enters port
// 0 and a full copy leaves every member egress, all from a single
// fanout-split stream when outputs are free. The telemetry plane counts
// that stream as port 0's one granted quantum.
func TestMcastCycleLevel(t *testing.T) {
	cfg := mcastConfig()
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r := mustNew(t, cfg)
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), ip.AddrFrom(224, 1, 1, 1), 64, 256, 42)
	r.OfferPacket(0, &pkt)
	ok := r.Chip.RunUntil(func() bool {
		return r.Stats().PktsOut[1] >= 1 && r.Stats().PktsOut[2] >= 1 && r.Stats().PktsOut[3] >= 1
	}, 30000)
	if !ok {
		t.Fatalf("multicast copies missing; stats %+v", r.Stats())
	}
	for _, port := range []int{1, 2, 3} {
		out, err := r.DrainOutput(port)
		if err != nil || len(out) != 1 {
			t.Fatalf("port %d: out=%d err=%v", port, len(out), err)
		}
		got := out[0]
		if got.Header.Dst != ip.AddrFrom(224, 1, 1, 1) {
			t.Fatalf("port %d: wrong group %v", port, got.Header.Dst)
		}
		if got.Header.TTL != 63 {
			t.Fatalf("port %d: TTL %d", port, got.Header.TTL)
		}
		for i := range pkt.Payload {
			if got.Payload[i] != pkt.Payload[i] {
				t.Fatalf("port %d: payload word %d corrupted", port, i)
			}
		}
	}
	if r.Stats().McastIn[0] != 1 || r.Stats().McastCopies[0] != 3 {
		t.Fatalf("mcast stats: in=%d copies=%d", r.Stats().McastIn[0], r.Stats().McastCopies[0])
	}
	if out0, _ := r.DrainOutput(0); len(out0) != 0 {
		t.Fatal("non-member port 0 received a copy")
	}
	ps := r.TelemetrySnapshot().Ports[0]
	if words := int64(len(pkt.Words())); ps.GrantedQuanta != 1 || ps.DeniedQuanta != 0 || ps.WordsGranted != words {
		t.Fatalf("port 0 telemetry: granted %d, denied %d, words %d; want 1, 0, %d",
			ps.GrantedQuanta, ps.DeniedQuanta, ps.WordsGranted, words)
	}
}

// TestMcastPartialReplay: with a member's egress contended by unicast
// traffic, the multicast packet is served across multiple quanta by
// replaying the buffered payload, and every member still gets exactly
// one intact copy.
func TestMcastPartialReplay(t *testing.T) {
	r := mustNew(t, mcastConfig())
	// Unicast competition: port 1 floods egress 2 (a member of the group).
	id := uint16(0)
	for i := 0; i < 8; i++ {
		id++
		u := ip.NewPacket(traffic.PortAddr(1, uint32(id)), traffic.PortAddr(2, uint32(id)), 64, 1024, id)
		r.OfferPacket(1, &u)
	}
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), ip.AddrFrom(224, 2, 2, 2), 64, 512, 99)
	r.OfferPacket(0, &pkt)
	ok := r.Chip.RunUntil(func() bool {
		return r.Stats().McastIn[0] >= 1 && r.Stats().PktsOut[2] >= 9
	}, 100000)
	if !ok {
		t.Fatalf("mixed traffic incomplete; stats %+v", r.Stats())
	}
	out1, err := r.DrainOutput(1)
	if err != nil || len(out1) != 1 {
		t.Fatalf("port 1: out=%d err=%v", len(out1), err)
	}
	out2, err := r.DrainOutput(2)
	if err != nil {
		t.Fatal(err)
	}
	mcastCopies := 0
	for _, p := range out2 {
		if p.Header.Dst == ip.AddrFrom(224, 2, 2, 2) {
			mcastCopies++
			for i := range pkt.Payload {
				if p.Payload[i] != pkt.Payload[i] {
					t.Fatalf("replayed copy corrupted at word %d", i)
				}
			}
		}
	}
	if mcastCopies != 1 {
		t.Fatalf("port 2 received %d multicast copies, want exactly 1", mcastCopies)
	}
}

// TestMcastUnknownGroupDropped: an unknown group is dropped cleanly.
func TestMcastUnknownGroupDropped(t *testing.T) {
	r := mustNew(t, mcastConfig())
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), ip.AddrFrom(224, 9, 9, 9), 64, 128, 1)
	r.OfferPacket(0, &pkt)
	good := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(1, 2), 64, 128, 2)
	r.OfferPacket(0, &good)
	if !r.Chip.RunUntil(func() bool { return r.Stats().PktsOut[1] >= 1 }, 40000) {
		t.Fatalf("good packet stuck; stats %+v", r.Stats())
	}
	if r.Stats().Dropped[0] != 1 {
		t.Fatalf("dropped %d, want 1", r.Stats().Dropped[0])
	}
}

// TestMcastMixedSaturation: sustained mixed unicast+multicast load keeps
// every invariant (packet conservation, valid checksums) and produces
// more egress copies than ingress packets.
func TestMcastMixedSaturation(t *testing.T) {
	r := mustNew(t, mcastConfig())
	rng := traffic.NewRNG(77)
	id := uint16(0)
	gen := func(p int) ip.Packet {
		id++
		if rng.Float64() < 0.25 {
			return ip.NewPacket(traffic.PortAddr(p, uint32(id)), ip.AddrFrom(224, 1, 1, 1), 64, 256, id)
		}
		return ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(rng.Intn(4), uint32(id)), 64, 256, id)
	}
	for c := 0; c < 60000; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	var in, out, copies int64
	for p := 0; p < 4; p++ {
		in += r.Stats().PktsIn[p]
		out += r.Stats().PktsOut[p]
		copies += r.Stats().McastCopies[p]
		if _, err := r.DrainOutput(p); err != nil {
			t.Fatalf("output %d corrupt: %v", p, err)
		}
	}
	if in < 100 {
		t.Fatalf("only %d packets in", in)
	}
	if out <= in {
		t.Fatalf("multicast amplification missing: %d in, %d out", in, out)
	}
	if copies == 0 {
		t.Fatal("no multicast copies recorded")
	}
}
