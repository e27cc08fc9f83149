package raw_test

import (
	"bytes"
	"testing"

	"repro/internal/raw"
	"repro/internal/wire/wiretest"
)

// pipeChip builds a 2x2 chip whose top row forwards static network 0
// west-to-east: words pushed into tile 0's west edge appear at tile 1's
// east edge two hops later.
func pipeChip(t testing.TB) *raw.Chip {
	c := raw.NewChip(raw.Config{Width: 2, Height: 2, ClockHz: 250e6})
	for _, tile := range []int{0, 1} {
		err := c.Tile(tile).SetSwitchProgram([]raw.SwInstr{
			{Op: raw.SwJump, Arg: 0, Routes: []raw.Route{{Dst: raw.DirE, Src: raw.DirW}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSnapshotRoundTrip: a recorded run checkpointed mid-stream restores
// into a fresh chip bit-for-bit — identical continuation output, and a
// byte-identical second snapshot.
func TestSnapshotRoundTrip(t *testing.T) {
	orig := pipeChip(t)
	if err := orig.EnableRecording(); err != nil {
		t.Fatal(err)
	}
	in := orig.StaticIn(0, raw.DirW)
	// Push in bursts at assorted cycles, checkpoint mid-burst.
	for i := 0; i < 40; i++ {
		in.Push(raw.Word(100 + i))
		orig.Run(int64(i % 3))
	}
	blob, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	replica := pipeChip(t)
	if err := replica.RestoreSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	if replica.Cycle() != orig.Cycle() {
		t.Fatalf("cycle %d != %d", replica.Cycle(), orig.Cycle())
	}

	// Identical continuations stay identical.
	oin, rin := in, replica.StaticIn(0, raw.DirW)
	for i := 0; i < 20; i++ {
		oin.Push(raw.Word(900 + i))
		rin.Push(raw.Word(900 + i))
		orig.Run(2)
		replica.Run(2)
	}
	ob, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := replica.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ob, rb) {
		t.Fatal("continuation snapshots diverge")
	}
	ow, oc := orig.StaticOut(1, raw.DirE).Drain()
	rw, rc := replica.StaticOut(1, raw.DirE).Drain()
	if len(ow) != len(rw) {
		t.Fatalf("outputs %d != %d words", len(ow), len(rw))
	}
	for i := range ow {
		if ow[i] != rw[i] || oc[i] != rc[i] {
			t.Fatalf("output word %d diverges", i)
		}
	}
}

// TestSnapshotRejectsCorruption: a flipped byte in the log or digest is
// detected, and a mismatched geometry refuses to restore.
func TestSnapshotRejectsCorruption(t *testing.T) {
	c := pipeChip(t)
	if err := c.EnableRecording(); err != nil {
		t.Fatal(err)
	}
	in := c.StaticIn(0, raw.DirW)
	for i := 0; i < 10; i++ {
		in.Push(raw.Word(i))
		c.Run(3)
	}
	// Leave a burst in flight: a word that already exited the pins is
	// visible to the digest only as a sink total (drained words cannot be
	// re-checked), so corruption detection is exercised on resident state.
	in.Push(0xAA, 0xBB, 0xCC)
	blob, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 1 // digest
	if err := pipeChip(t).RestoreSnapshot(bad); err == nil {
		t.Fatal("corrupt digest accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[len(bad)-12] ^= 1 // a logged word
	if err := pipeChip(t).RestoreSnapshot(bad); err == nil {
		t.Fatal("corrupt log accepted")
	}
	other := raw.NewChip(raw.Config{Width: 3, Height: 3, ClockHz: 250e6})
	if err := other.RestoreSnapshot(blob); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	ran := pipeChip(t)
	ran.Run(1)
	if err := ran.RestoreSnapshot(blob); err == nil {
		t.Fatal("restore onto a non-fresh chip accepted")
	}
}

// TestSnapshotHostileInput: a RAWCKPT1 blob cut at any 8-byte boundary,
// or with its log count set to 1<<62, is rejected with an error, never
// a panic.
func TestSnapshotHostileInput(t *testing.T) {
	c := pipeChip(t)
	if err := c.EnableRecording(); err != nil {
		t.Fatal(err)
	}
	in := c.StaticIn(0, raw.DirW)
	for i := 0; i < 50; i++ {
		in.Push(raw.Word(i))
		c.Run(4)
	}
	blob, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := wiretest.NewWalker(blob)
	w.Magic("RAWCKPT1")
	w.Bytes(3*4 + 2*8) // version, width, height, clock, cycle
	w.Bytes(16 * w.Count(16))
	w.U64() // digest
	if err := w.Done(); err != nil {
		t.Fatal(err)
	}
	wiretest.Reject(t, func(b []byte) error { return pipeChip(t).RestoreSnapshot(b) }, w.Cases())
}

// TestRecordingRequiredBeforeFirstCycle: the input log must cover the
// chip's whole history, so late enabling is refused.
func TestRecordingRequiredBeforeFirstCycle(t *testing.T) {
	c := pipeChip(t)
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("Snapshot without recording accepted")
	}
	c.Run(1)
	if err := c.EnableRecording(); err == nil {
		t.Fatal("late EnableRecording accepted")
	}
}

// FuzzSnapshotRoundTrip drives the pipeline chip with fuzz-chosen words
// and run lengths, checkpoints mid-run, and requires the restored
// replica's continuation snapshot to be byte-identical.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0, 0xff, 0, 9})
	f.Add(bytes.Repeat([]byte{0xa5}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		orig := pipeChip(t)
		if err := orig.EnableRecording(); err != nil {
			t.Fatal(err)
		}
		in := orig.StaticIn(0, raw.DirW)
		for i, b := range data {
			in.Push(raw.Word(b) | raw.Word(i)<<8)
			orig.Run(int64(b % 5))
		}
		blob, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		replica := pipeChip(t)
		if err := replica.RestoreSnapshot(blob); err != nil {
			t.Fatal(err)
		}
		orig.Run(64)
		replica.Run(64)
		ob, _ := orig.Snapshot()
		rb, _ := replica.Snapshot()
		if !bytes.Equal(ob, rb) {
			t.Fatal("continuation snapshots diverge")
		}
	})
}
