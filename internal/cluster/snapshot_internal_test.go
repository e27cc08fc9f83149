package cluster

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// snapFabric builds the checkpointing, healing ring of 4 the FABCKPT1
// decoder tests restore into, with two far-future chip controls.
func snapFabric(t testing.TB) *Fabric {
	rc := router.DefaultConfig()
	rc.Checkpoint = true
	f, err := NewFabric(Config{Topology: Ring(4), Router: rc, Heal: HealConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	f.ApplySchedule(fault.MustParse("killchip@100000:c1;restorechip@200000:c1"))
	return f
}

// smallFabricSnapshot checkpoints a 200-cycle run with antipodal packets
// in flight, an event with a detail string, and one frame in ARQ
// custody, so every FABCKPT1 section is present.
func smallFabricSnapshot(t testing.TB) []byte {
	f := snapFabric(t)
	ext := f.spec.Externals()
	for e := 0; e < ext; e++ {
		pkt := ip.NewPacket(traffic.PortAddr(e, 1), traffic.PortAddr((e+ext/2)%ext, 1), 64, 64, uint16(e+1))
		f.OfferPacket(e, &pkt)
	}
	f.Run(200)
	for e := 0; e < ext; e++ {
		if _, err := f.DrainOutput(e); err != nil {
			t.Fatal(err)
		}
	}
	f.events.AddDetail(f.cycle, 0, trace.EvTrunkKill, "c0-c1")
	src, port, _, _ := f.trunks[0].endpoints(1)
	f.arq = append(f.arq, arqFrame{trunk: 0, dir: 1, src: src, port: port, dstExt: 0,
		seq: 1, nextTry: 1 << 40, words: []uint32{7, 8, 9}})
	blob, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFabricSnapshotHostileInput: a FABCKPT1 blob cut at any 8-byte
// boundary, with any count set to 1<<62, with a control cursor past the
// schedule, or with an ARQ frame naming a trunk, direction, chip, port
// or external outside the topology is rejected with an error, never a
// panic (nor accepted, to panic in the next Run).
func TestFabricSnapshotHostileInput(t *testing.T) {
	blob := smallFabricSnapshot(t)
	f := snapFabric(t)
	w := wiretest.NewWalker(blob)
	w.Magic(fabSnapMagic)
	w.Bytes(6 * 8) // kind, chips, w, h, cycle, controls
	nextCtlAt := w.Offset()
	w.U64()
	for range f.chips {
		w.Bytes(5 * 8) // dead, epoch, bornAt, wordsIn, wordsOut
		w.Blob()
	}
	for range f.trunks {
		w.U64()
		for d := 0; d < 2; d++ {
			w.Bytes(6 * 8)
			w.Bytes(4 * w.Count(4))
		}
	}
	w.Bytes(8 * len(f.extDropped))
	for n := w.Count(32); n > 0; n-- {
		w.Bytes(3 * 8)
		w.Blob()
	}
	w.Bytes(8 * (3 + numDropCauses + 5)) // ledger, heal counters, arqSeq
	var frames []int
	for n := w.Count(72); n > 0; n-- {
		frames = append(frames, w.Offset())
		w.Bytes(8 * 8)
		w.Bytes(4 * w.Count(4))
	}
	w.Bytes(16 * w.Count(16)) // flow sequences
	egress := 16 + 8*len(egressFlow{}.bits)
	w.Bytes(egress * w.Count(egress))
	if err := w.Done(); err != nil || len(frames) != 1 {
		t.Fatalf("walk: %v, %d ARQ frames", err, len(frames))
	}

	cases := append(w.Cases(), wiretest.Case{Name: "nextCtl = 1<<63", Blob: wiretest.Set(blob, nextCtlAt, 1<<63)},
		wiretest.Case{Name: "nextCtl past the schedule", Blob: wiretest.Set(blob, nextCtlAt, 3)})
	for _, c := range []struct {
		field string
		off   int
		v     uint64
	}{
		{"trunk", 0, uint64(len(f.trunks))},
		{"direction", 8, 2},
		{"chip", 16, uint64(len(f.chips))},
		{"port", 24, 4},
		{"external", 32, uint64(f.spec.Externals())},
		{"attempts", 48, 1 << 63},
	} {
		cases = append(cases, wiretest.Case{Name: fmt.Sprintf("ARQ %s = %d", c.field, c.v), Blob: wiretest.Set(blob, frames[0]+c.off, c.v)})
	}

	// Fabric construction dominates; a blob that fails to parse leaves
	// every chip untouched, so the fabric is rebuilt only after a replay.
	if err := snapFabric(t).RestoreSnapshot(blob); err != nil {
		t.Fatalf("valid blob: %v", err)
	}
	wiretest.Reject(t, func(b []byte) error {
		if f.chips[0].r.Cycle() != 0 {
			f = snapFabric(t)
		}
		return f.RestoreSnapshot(b)
	}, cases)
}

// FuzzFabricRestore: RestoreSnapshot on a ring of 4 returns an error or
// succeeds on any bytes, never panics, and a fabric it accepts runs.
func FuzzFabricRestore(f *testing.F) {
	f.Add(smallFabricSnapshot(f))
	var fab *Fabric
	f.Fuzz(func(t *testing.T, blob []byte) {
		// A mutated chip cycle field would replay for hours before the
		// digest check can fail it: the formats carry no checksum.
		rd := wire.NewReader(blob)
		rd.Bytes(8 * 8) // magic, kind, chips, w, h, cycle, controls, cursor
		for k := 0; k < 4; k++ {
			rd.Bytes(5 * 8)
			chip := wire.NewReader(rd.Blob())
			chip.Bytes(8)
			raw := wire.NewReader(chip.Blob())
			raw.Bytes(28) // magic, version, width, height, clock
			if raw.U64() > 1<<16 {
				t.Skip()
			}
		}
		// As in the hostile-input test: rebuild only after a replay.
		if fab == nil || fab.chips[0].r.Cycle() != 0 {
			fab = snapFabric(t)
		}
		if fab.RestoreSnapshot(blob) != nil {
			return
		}
		fab.Run(200)
		fab = nil
	})
}
