package raw_test

import (
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
			e.DynSend(raw.DynGeneral, func() []raw.Word {
				msg := []raw.Word{raw.DynHeaderTag(1, 1, payloadLen, raw.Word(si))}
				for w := 0; w < payloadLen; w++ {
					msg = append(msg, raw.Word(si*1000+k*10+w))
				}
				return msg
			})
		}))
	}
	var got [][]raw.Word
	recvCount := 0
	chip.Tile(5).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if recvCount >= len(senders)*msgsPerSender {
			return
		}
		recvCount++
		e.DynRecv(raw.DynGeneral, 1+payloadLen, func(ws []raw.Word) {
			got = append(got, append([]raw.Word(nil), ws...))
		})
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
		e.DynSend(raw.DynGeneral, func() []raw.Word {
			return []raw.Word{raw.DynHeader(3, 3, 1), raw.Word(k)}
		})
		e.DynRecv(raw.DynGeneral, 2, nil)
	}))
	chip.Tile(15).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if bCount >= rounds {
			return
		}
		bCount++
		var v raw.Word
		e.DynRecv(raw.DynGeneral, 2, func(ws []raw.Word) { v = ws[1] })
		e.DynSend(raw.DynGeneral, func() []raw.Word {
			return []raw.Word{raw.DynHeader(0, 0, 1), v + 100}
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
		e.DynSend(raw.DynGeneral, func() []raw.Word {
			return []raw.Word{raw.DynHeader(4, 1, 2), raw.MemCmd(0, 4), 0x40}
		})
		e.DynRecv(raw.DynGeneral, 2, func(ws []raw.Word) { got = ws[1] })
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
		e.DynSend(raw.DynGeneral, func() []raw.Word {
			msg := []raw.Word{raw.DynHeader(2, 2, n)}
			for i := 0; i < n; i++ {
				msg = append(msg, raw.Word(i))
			}
			return msg
		})
	}))
	var got []raw.Word
	chip.Tile(10).Exec().SetFirmware(firmwareFunc(func(e *raw.Exec) {
		if got != nil {
			return
		}
		got = []raw.Word{}
		e.DynRecv(raw.DynGeneral, 1+n, func(ws []raw.Word) { got = ws })
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
