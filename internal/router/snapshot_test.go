package router_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/traffic"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
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

// smallSnapshot checkpoints a 200-cycle run that carries one packet and
// one table update, so every RTRCKPT1 section is present.
func smallSnapshot(t testing.TB, cfg router.Config) []byte {
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(1, 1), 64, 64, 1)
	r.OfferPacket(0, &pkt)
	r.UpdateTable(router.CanonicalTable())
	r.Run(200)
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRouterSnapshotHostileInput: an RTRCKPT1 blob cut at any 8-byte
// boundary, with any count set to 1<<62, or with a negative parse or
// drain cursor is rejected with an error, never a panic.
func TestRouterSnapshotHostileInput(t *testing.T) {
	cfg := snapCfg()
	blob := smallSnapshot(t, cfg)
	w := wiretest.NewWalker(blob)
	w.Magic("RTRCKPT1")
	w.Blob() // chip
	var cursors []int
	for p := 0; p < 4; p++ {
		cursors = append(cursors, w.Offset()) // parsed
		w.U64()
		w.Bytes(4 * w.Count(4))               // parse buffer
		w.Bytes(8 * w.Count(8))               // cut list
		cursors = append(cursors, w.Offset()) // drained
		w.U64()
	}
	for n := w.Count(16); n > 0; n-- { // table updates
		w.U64()
		for s := w.Count(16); s > 0; s-- {
			w.U64()
			w.Bytes(4 * w.Count(4))
		}
	}
	if err := w.Err(); err != nil || len(w.Counts) < 12 { // 12 with one table segment
		t.Fatalf("walk: %v, %d counts", err, len(w.Counts))
	}
	cases := w.Cases()
	for _, off := range cursors {
		cases = append(cases, wiretest.Case{Name: fmt.Sprintf("cursor at %d = -1", off), Blob: wiretest.Set(blob, off, 1<<64-1)})
	}
	// Router construction dominates; a blob that fails to parse leaves
	// the router untouched, so one is rebuilt only after a replay ran.
	r := mustNew(t, cfg)
	if err := r.RestoreSnapshot(blob); err != nil {
		t.Fatalf("valid blob: %v", err)
	}
	wiretest.Reject(t, func(b []byte) error {
		if r.Cycle() != 0 {
			r = mustNew(t, cfg)
		}
		return r.RestoreSnapshot(b)
	}, cases)
}

// replayCycles is the cycle an RTRCKPT1 blob's chip replay runs to,
// read from the embedded RAWCKPT1 header.
func replayCycles(blob []byte) uint64 {
	rd := wire.NewReader(blob)
	rd.Bytes(8)
	chip := wire.NewReader(rd.Blob())
	chip.Bytes(28) // magic, version, width, height, clock
	return chip.U64()
}

// FuzzRouterRestore: RestoreSnapshot returns an error or succeeds on any
// bytes, never panics, and a router it accepts runs and drains.
func FuzzRouterRestore(f *testing.F) {
	cfg := snapCfg()
	f.Add(smallSnapshot(f, cfg))
	f.Fuzz(func(t *testing.T, blob []byte) {
		// A mutated cycle field would replay for hours before the digest
		// check can fail it: the format carries no checksum.
		if replayCycles(blob) > 1<<16 {
			t.Skip()
		}
		r := mustNew(t, cfg)
		if r.RestoreSnapshot(blob) != nil {
			return
		}
		r.Run(64)
		for p := 0; p < 4; p++ {
			r.DrainOutput(p)
		}
	})
}
