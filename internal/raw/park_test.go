package raw_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/raw"
)

// parkObservation renders what both engines must agree on after a Run:
// every tile's state and state counts, both switches' counters, and the
// checkpoint bytes (the state digest covers every queue word).
func parkObservation(t *testing.T, chip *raw.Chip) (string, []byte) {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < chip.NumTiles(); i++ {
		tile := chip.Tile(i)
		fmt.Fprintf(&b, "tile %d: %v %v", i, tile.Exec().State(), tile.Exec().StateCounts())
		for net := 0; net < raw.NumStaticNets; net++ {
			sw := tile.SwitchOn(net)
			fmt.Fprintf(&b, " sw%d %d/%d", net, sw.Stalls(), sw.Moves())
		}
		b.WriteByte('\n')
	}
	blob, err := chip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), blob
}

// TestParkedEdgeReaderOpensWindow pins the order of the macro-window
// attempt: edge queues are snapshotted before the park set is read.
// Tile 0 streams its west edge input to its north pins while its
// processor waits on a receive no word reaches. With the edge empty the
// tile parks, blocked (the first 20 cycles step one at a time, so the
// skipped steps show in ParkedTileCycles), and every window accrues its
// record's StallRecv. Words pushed between two Run calls wake it at the
// next attempt's snapshot, and that attempt must open a window that
// accrues the processor state classified now; a tile woken after
// classification would accrue whatever state was recorded for it last.
func TestParkedEdgeReaderOpensWindow(t *testing.T) {
	build := func(eng raw.Engine) *raw.Chip {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		if err := chip.EnableRecording(); err != nil {
			t.Fatal(err)
		}
		tile := chip.Tile(0)
		if err := tile.SetSwitchProgram([]raw.SwInstr{
			{Op: raw.SwJump, Arg: 0, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}}}); err != nil {
			t.Fatal(err)
		}
		var got raw.Word
		tile.Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) { e.Recv(&got) }))
		return chip
	}
	ref, fast := build(raw.EngineRef), build(raw.EngineFast)
	for _, chip := range []*raw.Chip{ref, fast} {
		for i := 0; i < 20; i++ {
			chip.Step()
		}
	}
	if fast.ParkedTileCycles() == 0 {
		t.Fatal("tile 0 never parked on its empty edge input")
	}
	var windows int64
	for slice, push := range []int{0, 50, 0, 30} {
		for _, chip := range []*raw.Chip{ref, fast} {
			in := chip.StaticIn(0, raw.DirW)
			for i := 0; i < push; i++ {
				in.Push(raw.Word(slice<<8 | i))
			}
			chip.Run(100)
		}
		if err := raw.CheckParkSet(fast); err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		if w, _ := fast.MacroStats(); w == windows {
			t.Fatalf("slice %d: no window opened after %d pushed words", slice, push)
		} else {
			windows = w
		}
		want, wantBlob := parkObservation(t, ref)
		got, gotBlob := parkObservation(t, fast)
		if want != got || !bytes.Equal(wantBlob, gotBlob) {
			t.Fatalf("slice %d (cycle %d): engines diverged (checkpoints equal: %v)\nref:\n%s\nfast:\n%s",
				slice, ref.Cycle(), bytes.Equal(wantBlob, gotBlob), want, got)
		}
		for _, chip := range []*raw.Chip{ref, fast} {
			if words, _ := chip.StaticOut(0, raw.DirN).Drain(); len(words) != push {
				t.Fatalf("slice %d: %v streamed %d of %d words", slice, chip.Engine(), len(words), push)
			}
		}
	}
}

// TestDynRouterSleepWake wakes sleeping dynamic routers each way they
// can wake. Tile 4's processor injects a message for its east neighbor
// (its own router wakes on the injection's commit, tile 5's on its
// neighbor's push) and then a request for the echo device east of tile
// 7, whose reply enters the chip on an edge queue (tile 7's router
// wakes when the queue is snapshotted). Tiles 4, 5 and 7 compute
// between messages, so they stay awake while their routers fall asleep;
// a router in a parked tile is not stepped and would not fall asleep.
// Under both engines the routers must deliver the same words at the
// same cycles, and the tiles count the same states, slice by slice.
func TestDynRouterSleepWake(t *testing.T) {
	type run struct {
		chip       *raw.Chip
		dev        *countDev
		got4, got5 []raw.Word
	}
	build := func(eng raw.Engine) *run {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		r := &run{chip: raw.NewChip(cfg), dev: &countDev{}}
		chip := r.chip
		if err := chip.EnableRecording(); err != nil {
			t.Fatal(err)
		}
		chip.AttachDynDevice(7, raw.DirE, raw.DynGeneral, r.dev)
		round := raw.Word(0)
		chip.Tile(4).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
			if round == 6 {
				return
			}
			round++
			v := round
			e.Compute(40 + 13*int(v))
			e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(1, 1, 2), v, 100 + v})
			e.Compute(25)
			e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(4, 1, 2), raw.MemCmd(0, 4), 200 + v})
			ws := make([]raw.Word, 2)
			e.DynRecv(raw.DynGeneral, ws)
			e.OnDone(func() { r.got4 = append(r.got4, ws[1]) })
		}))
		chip.Tile(5).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
			e.Compute(150)
			ws := make([]raw.Word, 3)
			e.DynRecv(raw.DynGeneral, ws)
			e.OnDone(func() { r.got5 = append(r.got5, ws[1], ws[2]) })
		}))
		chip.Tile(7).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) { e.Compute(64) }))
		return r
	}
	ref, fast := build(raw.EngineRef), build(raw.EngineFast)
	for slice, n := range []int64{1, 7, 60, 3, 150, 41, 9, 300, 2, 500} {
		for _, r := range []*run{ref, fast} {
			r.chip.Run(n)
		}
		if err := raw.CheckParkSet(fast.chip); err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		want, wantBlob := parkObservation(t, ref.chip)
		got, gotBlob := parkObservation(t, fast.chip)
		want += fmt.Sprintf("tile 4 got %v, tile 5 got %v, device ticked at %v\n", ref.got4, ref.got5, ref.dev.ticks)
		got += fmt.Sprintf("tile 4 got %v, tile 5 got %v, device ticked at %v\n", fast.got4, fast.got5, fast.dev.ticks)
		if want != got || !bytes.Equal(wantBlob, gotBlob) {
			t.Fatalf("slice %d (cycle %d): engines diverged (checkpoints equal: %v)\nref:\n%s\nfast:\n%s",
				slice, ref.chip.Cycle(), bytes.Equal(wantBlob, gotBlob), want, got)
		}
	}
	if len(fast.got4) != 6 || len(fast.got5) != 12 {
		t.Fatalf("tile 4 got %d echoes and tile 5 %d words, want 6 and 12", len(fast.got4), len(fast.got5))
	}
	for i, w := range fast.got4 {
		if w != raw.Word(202+i) {
			t.Fatalf("echo %d = %d, want %d", i, w, 202+i)
		}
	}
	if fast.chip.ParkedTileCycles() == 0 {
		t.Fatal("no tile parked between the messages")
	}
}
