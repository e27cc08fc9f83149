package router_test

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/traffic"
)

// snapCfg is the chaos configuration the checkpoint tests run: watchdog
// with auto-restore, a crossbar freeze that thaws, and checkpointing on.
func snapCfg() router.Config {
	cfg := router.DefaultConfig()
	cfg.Checkpoint = true
	cfg.Watchdog = true
	cfg.WatchdogCycles = 2000
	cfg.AutoRestore = true
	cfg.ReadmitQuanta = 4
	return cfg
}

// snapFeed offers a deterministic burst to every port.
func snapFeed(r *router.Router) {
	rng := traffic.NewRNG(2024)
	id := uint16(0)
	for p := 0; p < 4; p++ {
		for r.InputBacklogWords(p) < 8000 {
			id++
			size := []int{64, 128, 256, 512}[rng.Intn(4)]
			pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(rng.Intn(4), uint32(id)), 64, size, id)
			r.OfferPacket(p, &pkt)
		}
	}
}

func snapInjector() *fault.Injector {
	// Port 1's crossbar freezes at 3000 and thaws at 9000: the run
	// degrades, auto-restores, and re-admits — all inside the replayed
	// window, so the checkpoint must reproduce the whole recovery arc.
	return fault.NewInjector(fault.MustParse("freeze@3000+6000:t6"), 16)
}

// TestRouterSnapshotDeterminism: checkpoint mid-run (after a degrade →
// auto-restore arc, with outputs partially drained), restore into a
// fresh router, continue — and the continuation must be bit-for-bit
// identical to the uninterrupted run.
func TestRouterSnapshotDeterminism(t *testing.T) {
	// Uninterrupted reference run.
	ref := mustNew(t, snapCfg())
	ref.Chip.InstallFaults(snapInjector())
	snapFeed(ref)
	ref.Run(8000)
	refMid := drainAll(t, ref)
	ref.Run(7000) // through the restore arc
	blob, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(15000)
	refFinal, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refTail := drainAll(t, ref)

	// Crash here: rebuild from scratch and restore the checkpoint.
	res := mustNew(t, snapCfg())
	res.Chip.InstallFaults(snapInjector())
	if err := res.RestoreSnapshot(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.Cycle() != 15000 {
		t.Fatalf("restored cycle %d, want 15000", res.Cycle())
	}
	res.Run(15000)
	resFinal, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refFinal, resFinal) {
		t.Fatalf("continuation diverged from uninterrupted run (snapshot %d vs %d bytes)",
			len(refFinal), len(resFinal))
	}
	resTail := drainAll(t, res)
	if len(refMid) == 0 || len(refTail) == 0 {
		t.Fatalf("degenerate run (mid=%d tail=%d packets)", len(refMid), len(refTail))
	}
	comparePackets(t, refTail, resTail)
}

func drainAll(t *testing.T, r *router.Router) []ip.Packet {
	t.Helper()
	var all []ip.Packet
	for p := 0; p < 4; p++ {
		pkts, err := r.DrainOutput(p)
		if err != nil {
			t.Fatalf("output %d corrupt: %v", p, err)
		}
		all = append(all, pkts...)
	}
	return all
}

func comparePackets(t *testing.T, a, b []ip.Packet) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("continuation delivered %d packets, reference %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Header.ID != b[i].Header.ID || len(a[i].Payload) != len(b[i].Payload) {
			t.Fatalf("packet %d differs: id %d vs %d", i, a[i].Header.ID, b[i].Header.ID)
		}
		for j := range a[i].Payload {
			if a[i].Payload[j] != b[i].Payload[j] {
				t.Fatalf("packet %d payload word %d differs", i, j)
			}
		}
	}
}

// TestRouterSnapshotErrors: the wrapper rejects un-checkpointed routers
// and detects a replay environment that does not match the blob.
func TestRouterSnapshotErrors(t *testing.T) {
	plain := mustNew(t, router.DefaultConfig())
	if _, err := plain.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted without Config.Checkpoint")
	}
	if err := plain.RestoreSnapshot(nil); err == nil {
		t.Fatal("RestoreSnapshot accepted without Config.Checkpoint")
	}

	cfg := router.DefaultConfig()
	cfg.Checkpoint = true
	src := mustNew(t, cfg)
	src.Chip.InstallFaults(snapInjector())
	snapFeed(src)
	src.Run(5000)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	junk := mustNew(t, cfg)
	if err := junk.RestoreSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage blob accepted")
	}

	// Same config but no fault injector: the replay takes a different
	// trajectory and must be rejected, not silently adopted.
	bare := mustNew(t, cfg)
	if err := bare.RestoreSnapshot(blob); err == nil {
		t.Fatal("replay without the original fault schedule accepted")
	}
}
