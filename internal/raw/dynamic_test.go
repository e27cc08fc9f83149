package raw_test

import (
	"slices"
	"testing"

	"repro/internal/raw"
)

// TestDynManyToOneCongestion: four senders flood one receiver; every
// message arrives whole and unshuffled despite output contention and
// wormhole interleaving across routers.
func TestDynManyToOneCongestion(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	const msgsPerSender = 8
	const payloadLen = 6
	senders := []int{0, 3, 12, 15} // the four corners
	for si, s := range senders {
		si, s := si, s
		sent := 0
		chip.Tile(s).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
			if sent >= msgsPerSender {
				return
			}
			k := sent
			sent++
			msg := []raw.Word{raw.DynHeaderTag(1, 1, payloadLen, raw.Word(si))}
			for w := 0; w < payloadLen; w++ {
				msg = append(msg, raw.Word(si*1000+k*10+w))
			}
			e.DynSend(raw.DynGeneral, msg)
		}))
	}
	var got [][]raw.Word
	recvCount := 0
	chip.Tile(5).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if recvCount >= len(senders)*msgsPerSender {
			return
		}
		recvCount++
		ws := make([]raw.Word, 1+payloadLen)
		e.DynRecv(raw.DynGeneral, ws)
		e.OnDone(func() { got = append(got, ws) })
	}))
	chip.Run(4000)
	if len(got) != len(senders)*msgsPerSender {
		t.Fatalf("received %d messages, want %d", len(got), len(senders)*msgsPerSender)
	}
	// Within each message: contiguous (header tag matches all payload
	// words' sender, ascending word index). Across messages from one
	// sender: in order.
	lastK := map[int]int{}
	for _, msg := range got {
		si := int(raw.DynTag(msg[0]))
		base := int(msg[1]) / 10 * 10
		for w := 0; w < payloadLen; w++ {
			if int(msg[1+w]) != base+w {
				t.Fatalf("message from sender %d interleaved: %v", si, msg)
			}
		}
		k := (int(msg[1]) - si*1000) / 10
		if k != lastK[si] {
			t.Fatalf("sender %d messages reordered: got %d want %d", si, k, lastK[si])
		}
		lastK[si]++
	}
}

// firmwareFunc adapts a refill function.
type firmwareFunc func(e *raw.Exec)

func (f firmwareFunc) Refill(e *raw.Exec) { f(e) }

// TestDynBidirectionalPingPong: two processors bounce a counter over the
// dynamic network; checks request/response does not deadlock and latency
// is sane.
func TestDynBidirectionalPingPong(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	const rounds = 20
	var aCount, bCount int
	chip.Tile(0).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if aCount >= rounds {
			return
		}
		k := aCount
		aCount++
		e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(3, 3, 1), raw.Word(k)})
		e.DynRecv(raw.DynGeneral, make([]raw.Word, 2))
	}))
	chip.Tile(15).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if bCount >= rounds {
			return
		}
		bCount++
		ws := make([]raw.Word, 2)
		e.DynRecv(raw.DynGeneral, ws)
		e.Then(func(e *raw.Exec) {
			e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(0, 0, 1), ws[1] + 100})
		})
	}))
	chip.Run(3000)
	if aCount != rounds || bCount != rounds {
		t.Fatalf("ping-pong incomplete: a=%d b=%d", aCount, bCount)
	}
}

// TestDynEdgeDeviceEcho: a device on the chip boundary echoes messages
// back to their sender with a transformed payload.
func TestDynEdgeDeviceEcho(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	// X-first dimension-ordered routing can only reach the east edge of
	// the sender's own row, so the device sits at tile 7 (row 1).
	chip.AttachDynDevice(7, raw.DirE, raw.DynGeneral, &echoDev{})
	var got raw.Word
	chip.Tile(4).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if got != 0 {
			return
		}
		e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(4, 1, 2), raw.MemCmd(0, 4), 0x40})
		ws := make([]raw.Word, 2)
		e.DynRecv(raw.DynGeneral, ws)
		e.OnDone(func() { got = ws[1] })
	}))
	chip.Run(500)
	if got != 0x40+1 {
		t.Fatalf("echo returned %#x, want 0x41", got)
	}
}

// echoDev frames messages across ticks (words trickle off the pins one
// per cycle) and echoes value+1 to the requesting tile.
type echoDev struct{ buf []raw.Word }

// NextDue implements raw.Due: always due, so the device disarms macro
// windows while attached.
func (d *echoDev) NextDue(cycle int64) int64 { return cycle }

func (d *echoDev) Tick(cycle int64, arrived []raw.Word) []raw.Word {
	d.buf = append(d.buf, arrived...)
	var out []raw.Word
	for len(d.buf) > 0 {
		_, _, plen := raw.DecodeDynHeader(d.buf[0])
		if len(d.buf) < 1+plen {
			break
		}
		msg := d.buf[:1+plen]
		d.buf = d.buf[1+plen:]
		_, tile := raw.DecodeMemCmd(msg[1])
		out = append(out, raw.DynHeader(tile%4, tile/4, 1), msg[2]+1)
	}
	return out
}

// TestIdleDeviceSkipsTicks: a device is ticked only on cycles that bring
// it words or at which its NextDue is not negative. A tile sends two
// requests a few hundred cycles apart through a device that answers each
// after a 10-cycle latency; on both engines the device must never see an
// idle Tick, must answer both, and must be ticked on the same cycles.
func TestIdleDeviceSkipsTicks(t *testing.T) {
	var logs [2][]int64
	for i, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		dev := &countDev{}
		chip.AttachDynDevice(7, raw.DirE, raw.DynGeneral, dev)
		var got []raw.Word
		sent := 0
		chip.Tile(4).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
			if sent == 2 {
				return
			}
			sent++
			e.Compute(300)
			e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(4, 1, 2), raw.MemCmd(0, 4), raw.Word(sent)})
			ws := make([]raw.Word, 2)
			e.DynRecv(raw.DynGeneral, ws)
			e.OnDone(func() { got = append(got, ws[1]) })
		}))
		chip.Run(1000)
		if len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Fatalf("engine %v: device answered %v, want [2 3]", eng, got)
		}
		if dev.idle != 0 {
			t.Fatalf("engine %v: %d of %d ticks had no arrivals while not due", eng, dev.idle, len(dev.ticks))
		}
		// Each request is three words off the pins plus the latency.
		if n := len(dev.ticks); n == 0 || n > 40 {
			t.Fatalf("engine %v: device ticked on %d of 1000 cycles, want 1..40", eng, n)
		}
		logs[i] = dev.ticks
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("tick cycles differ:\nref:  %v\nfast: %v", logs[0], logs[1])
	}
}

// countDev is echoDev with a 10-cycle latency and an honest NextDue: due
// while a frame is partial or a reply waits, negative otherwise. It
// records the cycles it is ticked on and counts Ticks the chip should
// have skipped.
type countDev struct {
	buf, reply []raw.Word
	due        int64
	ticks      []int64
	idle       int
}

func (d *countDev) NextDue(cycle int64) int64 {
	if len(d.buf)+len(d.reply) != 0 {
		return cycle
	}
	return -1
}

func (d *countDev) Tick(cycle int64, arrived []raw.Word) []raw.Word {
	if len(arrived) == 0 && d.NextDue(cycle) < 0 {
		d.idle++
	}
	d.ticks = append(d.ticks, cycle)
	d.buf = append(d.buf, arrived...)
	if len(d.buf) >= 3 {
		_, tile := raw.DecodeMemCmd(d.buf[1])
		d.reply = []raw.Word{raw.DynHeader(tile%4, tile/4, 1), d.buf[2] + 1}
		d.buf = d.buf[3:]
		d.due = cycle + 10
	}
	if d.reply != nil && cycle >= d.due {
		out := d.reply
		d.reply = nil
		return out
	}
	return nil
}

// TestDynMaxLengthMessage exercises the 32-word maximum.
func TestDynMaxLengthMessage(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	n := raw.MaxDynMessageWords - 1
	sent := false
	chip.Tile(0).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if sent {
			return
		}
		sent = true
		msg := []raw.Word{raw.DynHeader(2, 2, n)}
		for i := 0; i < n; i++ {
			msg = append(msg, raw.Word(i))
		}
		e.DynSend(raw.DynGeneral, msg)
	}))
	var got []raw.Word
	chip.Tile(10).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if got != nil {
			return
		}
		got = []raw.Word{}
		ws := make([]raw.Word, 1+n)
		e.DynRecv(raw.DynGeneral, ws)
		e.OnDone(func() { got = ws })
	}))
	chip.Run(500)
	if len(got) != 1+n {
		t.Fatalf("got %d words, want %d", len(got), 1+n)
	}
	for i := 0; i < n; i++ {
		if got[1+i] != raw.Word(i) {
			t.Fatalf("word %d corrupted", i)
		}
	}
}
