package mem_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/raw"
)

// fwSeq replays refill batches.
type fwSeq struct {
	steps []func(e *raw.Exec)
	i     int
}

func (f *fwSeq) Refill(e *raw.Exec) {
	if f.i < len(f.steps) {
		f.steps[f.i](e)
		f.i++
	}
}

func TestControllerReadWrite(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	ctrl := mem.Attach(chip, 20)
	ctrl.PokeWords(0x400, []raw.Word{1, 2, 3, 4, 5, 6, 7, 8})

	var got raw.Word
	fw := &fwSeq{steps: []func(e *raw.Exec){
		func(e *raw.Exec) {
			e.CacheRead(0x403, &got)
		},
		func(e *raw.Exec) {
			e.CacheWrite(0x404, 0x99)
		},
	}}
	chip.Tile(10).Exec().SetFirmware(fw)
	chip.Run(300)
	if got != 4 {
		t.Fatalf("read %d, want 4", got)
	}
	if ctrl.Reads != 1 {
		t.Fatalf("controller served %d reads, want 1 (write hit the cached line)", ctrl.Reads)
	}
}

// TestWriteBackReachesDRAM forces an eviction and checks DRAM contents.
func TestWriteBackReachesDRAM(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	ctrl := mem.Attach(chip, 8)

	// Three conflicting lines (2-way set): the first, dirtied, must be
	// written back when the third arrives.
	const stride = 4096
	fw := &fwSeq{steps: []func(e *raw.Exec){
		func(e *raw.Exec) {
			e.CacheWrite(0x40, 0xabc)
		},
		func(e *raw.Exec) { e.CacheRead(0x40+stride, nil) },
		func(e *raw.Exec) { e.CacheRead(0x40+2*stride, nil) },
	}}
	chip.Tile(0).Exec().SetFirmware(fw)
	chip.Run(400)
	if ctrl.Writes != 1 {
		t.Fatalf("controller served %d writes, want 1", ctrl.Writes)
	}
	if ctrl.Peek(0x40) != 0xabc {
		t.Fatalf("DRAM[0x40] = %#x, want 0xabc", ctrl.Peek(0x40))
	}
}

// TestServiceInterval checks that a non-zero service interval separates
// two tiles' read completions.
func TestServiceInterval(t *testing.T) {
	measure := func(interval int) int64 {
		chip := raw.NewChip(raw.DefaultConfig())
		ctrl := mem.Attach(chip, 5)
		ctrl.ServiceInterval = interval
		var done [2]int64
		for i, tile := range []int{0, 1} {
			i := i
			chip.Tile(tile).Exec().SetFirmware(&fwSeq{steps: []func(e *raw.Exec){
				func(e *raw.Exec) {
					e.CacheRead(raw.Word(0x1000*(i+1)), nil)
					e.OnDone(func() { done[i] = chip.Cycle() })
				},
			}})
		}
		chip.Run(300)
		if done[0] == 0 || done[1] == 0 {
			t.Fatal("reads did not complete")
		}
		d := done[1] - done[0]
		if d < 0 {
			d = -d
		}
		return d
	}
	fast := measure(0)
	slow := measure(40)
	if slow <= fast {
		t.Fatalf("service interval had no effect: gap %d vs %d", slow, fast)
	}
}

// TestPortNextDue pins the port's due-cycle contract: an idle port has
// no due cycle, and a port holding a partial frame, a queued request or
// an in-flight response is due at every cycle until it is idle again.
func TestPortNextDue(t *testing.T) {
	c := mem.NewController(4, 5)
	c.ServiceInterval = 100
	p := c.NewPort()
	req := []raw.Word{raw.DynHeader(4, 0, 2), raw.MemCmd(raw.MemCmdRead, 0), 0x40}
	steps := []struct {
		cycle   int64
		arrived []raw.Word
		what    string
		due     bool
	}{
		{0, req[:2], "partial frame", true},
		{1, req[2:], "response in flight", true},
		{2, req, "second request queued", true},
		{6, nil, "first response out, second queued", true},
		{101, nil, "second response in flight", true},
		{106, nil, "idle", false},
	}
	if got := p.NextDue(0); got != -1 {
		t.Fatalf("new port: NextDue(0) = %d, want -1", got)
	}
	for _, s := range steps {
		p.Tick(s.cycle, s.arrived)
		want := int64(-1)
		if s.due {
			want = s.cycle + 1
		}
		if got := p.NextDue(s.cycle + 1); got != want {
			t.Fatalf("%s after cycle %d: NextDue = %d, want %d", s.what, s.cycle, got, want)
		}
	}
}
