package router_test

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/netproc"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// port1To returns the canonical table with 11/8 moved to egress to.
func port1To(to lookup.NextHop) *lookup.Patricia {
	return router.BindPorts(4, func(e int) lookup.NextHop {
		if e == 1 {
			return to
		}
		return lookup.NextHop(e)
	})
}

// egressOf offers one packet to dst on input 0, runs until it is
// delivered, and returns the port it left on.
func egressOf(t *testing.T, r *router.Router, dst ip.Addr, id uint16) int {
	t.Helper()
	before := r.Stats().PktsOut
	pkt := ip.NewPacket(traffic.PortAddr(0, uint32(id)), dst, 64, 128, id)
	r.OfferPacket(0, &pkt)
	n := r.TotalPktsOut()
	if !r.Chip.RunUntil(func() bool { return r.TotalPktsOut() > n }, 30000) {
		t.Fatalf("packet %d to %v not delivered; %+v", id, dst, r.Stats())
	}
	after := r.Stats().PktsOut
	for p := range after {
		if after[p] != before[p] {
			return p
		}
	}
	panic("unreachable")
}

// TestTableUpdateWhileForwarding (§2.2.1): the network processor installs
// a new forwarding table mid-run; packets before the flip follow the old
// route, packets after it the new one, with no corruption
// (double-buffered epochs).
func TestTableUpdateWhileForwarding(t *testing.T) {
	r := mustNew(t, router.DefaultConfig())

	// The canonical table routes 11/8 to port 1.
	before := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(1, 5), 64, 128, 1)
	r.OfferPacket(0, &before)
	if !r.Chip.RunUntil(func() bool { return r.Stats().PktsOut[1] >= 1 }, 20000) {
		t.Fatalf("pre-update packet not delivered; %+v", r.Stats())
	}

	// The network processor moves 11/8 to port 3.
	r.UpdateTable(port1To(3))

	after := ip.NewPacket(traffic.PortAddr(0, 2), traffic.PortAddr(1, 6), 64, 128, 2)
	r.OfferPacket(0, &after)
	if !r.Chip.RunUntil(func() bool { return r.Stats().PktsOut[3] >= 1 }, 30000) {
		t.Fatalf("post-update packet did not follow the new route; %+v", r.Stats())
	}
	out, err := r.DrainOutput(3)
	if err != nil || len(out) != 1 || out[0].Header.ID != 2 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	// A second flip returns to the original epoch region.
	r.UpdateTable(router.CanonicalTable())
	third := ip.NewPacket(traffic.PortAddr(0, 3), traffic.PortAddr(1, 7), 64, 128, 3)
	r.OfferPacket(0, &third)
	if !r.Chip.RunUntil(func() bool { return r.Stats().PktsOut[1] >= 2 }, 30000) {
		t.Fatalf("second flip did not restore the route; %+v", r.Stats())
	}
}

// TestTableUpdateCheckpointReplay pins mid-run table updates into the
// record-replay checkpoint: the restore must re-poke each recorded DRAM
// image AND re-flip the double-buffer epoch at the recorded cycle, or
// the replayed lookup firmware probes the stale epoch's addresses and
// the digest check trips (regression: the epoch flip was once applied
// only after the replay finished).
func TestTableUpdateCheckpointReplay(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Checkpoint = true
	r := mustNew(t, cfg)
	feed := func(rr *router.Router, from, to int) {
		for i := from; i < to; i++ {
			pkt := ip.NewPacket(traffic.PortAddr(0, uint32(i)),
				traffic.PortAddr(1, uint32(i)), 64, 128, uint16(i))
			rr.OfferPacket(0, &pkt)
			rr.Run(200)
		}
	}
	feed(r, 0, 20)
	r.UpdateTable(port1To(3))
	feed(r, 20, 40)
	// The second update rewrites epoch 0's region, whose lines the
	// lookup caches still hold: the replay must drop them at the same
	// cycle.
	r.UpdateTable(port1To(2))
	feed(r, 40, 60)
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustNew(t, cfg)
	if err := r2.RestoreSnapshot(blob); err != nil {
		t.Fatalf("restore after mid-run table update: %v", err)
	}
	// The restored router must keep forwarding on the updated table and
	// produce an identical continuation checkpoint.
	feed(r, 60, 70)
	feed(r2, 60, 70)
	if r.Stats().PktsOut != r2.Stats().PktsOut || r2.Stats().PktsOut[2] == 0 {
		t.Fatalf("restored router forwards %v, original %v",
			r2.Stats().PktsOut, r.Stats().PktsOut)
	}
	b1, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("continuation snapshots diverged after table-update replay")
	}
}

// TestSecondTableUpdateDropsStaleLines: the two table epochs alternate
// between two DRAM regions, so the second update rewrites the region of
// the first table, whose lines the lookup caches may still hold (level-1
// slot 0x0B00 sits at 0x0010_0B00 and 0x0800_0B00, both in set 0x160).
// The install must drop them, on both engines, or 11/8 keeps leaving on
// the first table's port. The engines must then checkpoint to the same
// bytes.
func TestSecondTableUpdateDropsStaleLines(t *testing.T) {
	var blobs [2][]byte
	for i, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		cfg := router.DefaultConfig()
		cfg.Engine = eng
		cfg.Checkpoint = true
		r := mustNew(t, cfg)
		dst := traffic.PortAddr(1, 5)
		if got := egressOf(t, r, dst, 1); got != 1 {
			t.Fatalf("%v: canonical table sent 11/8 to port %d, want 1", eng, got)
		}
		r.UpdateTable(port1To(3))
		if got := egressOf(t, r, dst, 2); got != 3 {
			t.Fatalf("%v: first update sent 11/8 to port %d, want 3", eng, got)
		}
		r.UpdateTable(port1To(2))
		if got := egressOf(t, r, dst, 3); got != 2 {
			t.Fatalf("%v: second update sent 11/8 to port %d, want 2 (a stale cached line?)", eng, got)
		}
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("ref and fast checkpoints differ")
	}
}

// TestBackToBackUpdatesUnderTraffic: two installs with no cycle between
// them, which two heal controls firing at the same cycle make, rewrite
// the region the lookups in flight are reading. Those lookups must
// complete on the words they already hold (raw's
// TestInvalidateCacheRangeInFlight pins that their lines are dropped
// afterwards). On both engines the router must then forward on the last
// table, the engines must checkpoint to the same bytes, and a restore
// must replay both installs at their shared cycle.
func TestBackToBackUpdatesUnderTraffic(t *testing.T) {
	var blobs [2][]byte
	for i, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		cfg := router.DefaultConfig()
		cfg.Engine = eng
		cfg.Checkpoint = true
		r := mustNew(t, cfg)
		seq := uint32(0)
		gen := func(p int) ip.Packet {
			seq++
			return ip.NewPacket(traffic.PortAddr(p, seq), traffic.PortAddr((p+1)%4, seq), 64, 64, uint16(seq))
		}
		// Vary the run length so that the installs land in every phase
		// of the lookup tiles' cache accesses.
		for k := 0; k < 40; k++ {
			feedSaturated(r, gen)
			r.Run(int64(50 + k))
			r.UpdateTable(port1To(lookup.NextHop(2 + k%2)))
			r.UpdateTable(port1To(lookup.NextHop(3 - k%2)))
		}
		// The last pair ended on 11/8 -> 2.
		r.Run(40000)
		if got := egressOf(t, r, traffic.PortAddr(1, 5), uint16(seq+1)); got != 2 {
			t.Fatalf("%v: 11/8 left port %d after the last install, want 2", eng, got)
		}
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
		if err := mustNew(t, cfg).RestoreSnapshot(blob); err != nil {
			t.Fatalf("%v: restore across back-to-back installs: %v", eng, err)
		}
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("ref and fast checkpoints differ")
	}
}

// TestLongPrefixesThroughChunks routes /20 and /24 prefixes, which the
// lookup firmware resolves with a second probe into a DRAM chunk, on
// both engines; an update then moves them, which exercises epoch 1's
// chunk region. Both engines must also checkpoint to the same bytes.
func TestLongPrefixesThroughChunks(t *testing.T) {
	table := func(p20, p24 lookup.NextHop) *lookup.Patricia {
		tb := router.CanonicalTable()
		if err := tb.Insert(uint32(ip.AddrFrom(10, 1, 16, 0)), 20, p20); err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(uint32(ip.AddrFrom(11, 7, 8, 0)), 24, p24); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	probes := []struct {
		dst ip.Addr
		// want is the egress under table(3, 0) and then table(1, 2).
		want [2]int
	}{
		{ip.AddrFrom(10, 1, 17, 5), [2]int{3, 1}},  // inside the /20
		{ip.AddrFrom(10, 1, 32, 5), [2]int{0, 0}},  // same chunk, 10/8
		{ip.AddrFrom(11, 7, 8, 200), [2]int{0, 2}}, // inside the /24
		{ip.AddrFrom(11, 7, 9, 200), [2]int{1, 1}}, // same chunk, 11/8
		{ip.AddrFrom(12, 7, 8, 200), [2]int{2, 2}}, // level 1 only
	}
	var blobs [2][]byte
	for i, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		cfg := router.DefaultConfig()
		cfg.Engine = eng
		cfg.Checkpoint = true
		cfg.Table = table(3, 0)
		r := mustNew(t, cfg)
		id := uint16(0)
		for epoch := 0; epoch < 2; epoch++ {
			if epoch == 1 {
				r.UpdateTable(table(1, 2))
			}
			for _, pr := range probes {
				id++
				if got := egressOf(t, r, pr.dst, id); got != pr.want[epoch] {
					t.Fatalf("%v epoch %d: %v left port %d, want %d", eng, epoch, pr.dst, got, pr.want[epoch])
				}
			}
		}
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("ref and fast checkpoints differ")
	}
}

// TestNetprocDrivesRouter wires the Chapter 2 control plane to the data
// plane: a RIP network computes this router's forwarding table, the
// network processor installs it, and packets follow the computed routes.
func TestNetprocDrivesRouter(t *testing.T) {
	// Topology: this router (node 0) has neighbors behind each port;
	// node 2 (behind port 1) advertises 40.0.0.0/8 two hops away through
	// node 1.
	nw := netproc.NewNetwork()
	nw.AddNode(0)
	nw.Link(0, 1, 1, 0) // our port 1 -> node 1
	nw.Link(1, 1, 2, 0) // node 1 -> node 2
	nw.AddNode(2).Attach(netproc.Prefix{Addr: 40 << 24, Len: 8}, 1)
	nw.AddNode(0).Attach(netproc.Prefix{Addr: 10 << 24, Len: 8}, 0) // local
	if nw.RunUntilStable(50) >= 50 {
		t.Fatal("control plane did not converge")
	}
	ft, err := nw.Nodes[0].ForwardingTable()
	if err != nil {
		t.Fatal(err)
	}

	cfg := router.DefaultConfig()
	cfg.Table = ft
	r := mustNew(t, cfg)

	// A packet to 40.1.2.3 must leave on port 1 (toward node 1).
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), ip.AddrFrom(40, 1, 2, 3), 64, 128, 9)
	r.OfferPacket(0, &pkt)
	if !r.Chip.RunUntil(func() bool { return r.Stats().PktsOut[1] >= 1 }, 30000) {
		t.Fatalf("packet did not follow the RIP-computed route; %+v", r.Stats())
	}
}
