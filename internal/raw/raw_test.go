package raw_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/raw"
)

// routeAll builds a one-instruction forever-looping route program: the Raw
// switch word routes and branches in the same cycle, so this streams one
// word per cycle per link.
func routeAll(routes ...raw.Route) []raw.SwInstr {
	return []raw.SwInstr{{Op: raw.SwJump, Arg: 0, Routes: routes}}
}

func mustProgram(t *testing.T, tile *raw.Tile, prog []raw.SwInstr) {
	t.Helper()
	if err := tile.SetSwitchProgram(prog); err != nil {
		t.Fatal(err)
	}
}

// TestStaticStreamAcrossRow checks the headline property of the static
// network: one word per cycle per link, sustained, across a row of
// switches with no processor involvement.
func TestStaticStreamAcrossRow(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	for x := 0; x < 4; x++ {
		mustProgram(t, chip.Tile(x), routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW}))
	}
	in := chip.StaticIn(0, raw.DirW)
	const n = 200
	for i := 0; i < n; i++ {
		in.Push(raw.Word(i))
	}
	chip.Run(n + 16)
	words, cycles := chip.StaticOut(3, raw.DirE).Drain()
	if len(words) != n {
		t.Fatalf("got %d words out, want %d", len(words), n)
	}
	for i, w := range words {
		if w != raw.Word(i) {
			t.Fatalf("word %d = %d, want %d (order violated)", i, w, i)
		}
	}
	// After the pipeline fills, exactly one word per cycle must exit.
	for i := 1; i < n; i++ {
		if cycles[i] != cycles[i-1]+1 {
			t.Fatalf("gap between word %d (cycle %d) and %d (cycle %d): want 1 word/cycle",
				i-1, cycles[i-1], i, cycles[i])
		}
	}
	if cycles[0] > 8 {
		t.Fatalf("first word exited at cycle %d, want a short pipeline fill", cycles[0])
	}
}

// TestStaticBackpressure checks that a stalled downstream switch blocks the
// stream without losing or reordering words.
func TestStaticBackpressure(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	mustProgram(t, chip.Tile(0), routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW}))
	mustProgram(t, chip.Tile(1), routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW}))
	// Tile 2 consumes nothing for 50 cycles, then starts forwarding.
	mustProgram(t, chip.Tile(2), []raw.SwInstr{
		{Op: raw.SwRouteN, Arg: 50}, // 50 idle cycles (no routes = fires trivially)
		{Op: raw.SwJump, Arg: 1, Routes: []raw.Route{{Dst: raw.DirE, Src: raw.DirW}}},
	})
	mustProgram(t, chip.Tile(3), routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW}))

	in := chip.StaticIn(0, raw.DirW)
	const n = 64
	for i := 0; i < n; i++ {
		in.Push(raw.Word(i ^ 0x5a))
	}
	chip.Run(n + 80)
	words, _ := chip.StaticOut(3, raw.DirE).Drain()
	if len(words) != n {
		t.Fatalf("got %d words, want %d", len(words), n)
	}
	for i, w := range words {
		if w != raw.Word(i^0x5a) {
			t.Fatalf("word %d corrupted: got %#x", i, w)
		}
	}
}

// doneStep is the step code of a test firmware's one completion.
const doneStep raw.Step = 1

// testSteps is a test firmware's table of completion bodies: onDone
// makes body the step of the op enqueued last, and run runs the body of
// a completed op's step.
type testSteps []func()

func (t *testSteps) onDone(e *raw.Exec, body func()) {
	*t = append(*t, body)
	e.OnDone(raw.Step(len(*t)))
}

// then enqueues a Then whose step runs body.
func (t *testSteps) then(e *raw.Exec, body func()) {
	*t = append(*t, body)
	e.Then(raw.Step(len(*t)))
}

func (t testSteps) run(s raw.Step) { t[s-1]() }

// fwSteps is a firmware helper that runs a fixed schedule once.
type fwSteps struct {
	once func(e *raw.Exec)
	done bool
	testSteps
}

func (f *fwSteps) Step(e *raw.Exec, s raw.Step) {
	if s != raw.Refill {
		f.run(s)
		return
	}
	if f.done {
		return
	}
	f.done = true
	f.once(e)
}

// TestProcSendRecvNeighbor exercises the register-mapped network interface:
// tile 0 computes and sends a word South (as in Figure 3-2); tile 4
// receives it and uses it.
func TestProcSendRecvNeighbor(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	mustProgram(t, chip.Tile(0), routeAll(raw.Route{Dst: raw.DirS, Src: raw.DirP}))
	mustProgram(t, chip.Tile(4), routeAll(raw.Route{Dst: raw.DirP, Src: raw.DirN}))

	var got raw.Word
	var gotCycle int64 = -1
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.Send(0xdead)
	}})
	rx := &fwSteps{}
	rx.once = func(e *raw.Exec) {
		e.Recv(&got)
		rx.onDone(e, func() { gotCycle = chip.Cycle() })
	}
	chip.Tile(4).Exec().SetFirmware(rx)
	chip.Run(20)
	if got != 0xdead {
		t.Fatalf("tile 4 received %#x, want 0xdead", got)
	}
	// Order-of-magnitude check on the tile-to-tile latency (Figure 3-2
	// measures 5 cycles end-to-end at the ISA level; the micro-op model
	// must be in the same small range).
	if gotCycle < 2 || gotCycle > 8 {
		t.Fatalf("receive completed at cycle %d, want 2..8", gotCycle)
	}
}

// TestSwitchRouteV checks the processor-supplied variable route count.
func TestSwitchRouteV(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	mustProgram(t, chip.Tile(0), []raw.SwInstr{
		{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}},
		{Op: raw.SwNotify, Arg: 1},
		{Op: raw.SwHalt},
	})
	var done bool
	fw := &fwSteps{}
	fw.once = func(e *raw.Exec) {
		e.WriteSwitchCount(7)
		e.WaitSwitchDone(nil)
		fw.onDone(e, func() { done = true })
	}
	chip.Tile(0).Exec().SetFirmware(fw)
	in := chip.StaticIn(0, raw.DirW)
	for i := 0; i < 20; i++ {
		in.Push(raw.Word(100 + i))
	}
	chip.Run(40)
	words, _ := chip.StaticOut(0, raw.DirN).Drain()
	if len(words) != 7 {
		t.Fatalf("routev moved %d words, want exactly 7", len(words))
	}
	if !done {
		t.Fatal("switch never notified the processor")
	}
}

// TestSwitchJumpTableDispatch models the §6.5 protocol: the processor
// picks a configuration and loads the switch pc; the switch routes the
// body and confirms.
func TestSwitchJumpTableDispatch(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	// Program layout: 0: recvpc; config A at 1 (route W->E x3, notify,
	// jump 0); config B at 4 (route W->P x2, notify, jump 0).
	prog := []raw.SwInstr{
		{Op: raw.SwRecvPC},
		{Op: raw.SwRouteN, Arg: 3, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}},
		{Op: raw.SwNotify, Arg: 0xA},
		{Op: raw.SwJump, Arg: 0},
		{Op: raw.SwRouteN, Arg: 2, Routes: []raw.Route{{Dst: raw.DirP, Src: raw.DirW}}},
		{Op: raw.SwNotify, Arg: 0xB},
		{Op: raw.SwJump, Arg: 0},
	}
	mustProgram(t, chip.Tile(0), prog)
	var confirms []raw.Word
	var received []raw.Word
	var confirm, recv [2]raw.Word
	fw := &fwSeq{}
	fw.steps = []func(e *raw.Exec){
		func(e *raw.Exec) {
			e.WriteSwitchPC(1) // config A
			e.WaitSwitchDone(&confirm[0])
			fw.onDone(e, func() { confirms = append(confirms, confirm[0]) })
		},
		func(e *raw.Exec) {
			e.WriteSwitchPC(4) // config B
			e.Recv(&recv[0])
			fw.onDone(e, func() { received = append(received, recv[0]) })
			e.Recv(&recv[1])
			fw.onDone(e, func() { received = append(received, recv[1]) })
			e.WaitSwitchDone(&confirm[1])
			fw.onDone(e, func() { confirms = append(confirms, confirm[1]) })
		},
	}
	chip.Tile(0).Exec().SetFirmware(fw)
	in := chip.StaticIn(0, raw.DirW)
	for i := 1; i <= 5; i++ {
		in.Push(raw.Word(i))
	}
	chip.Run(60)
	words, _ := chip.StaticOut(0, raw.DirN).Drain()
	if len(words) != 3 || words[0] != 1 || words[2] != 3 {
		t.Fatalf("config A routed %v, want [1 2 3]", words)
	}
	if len(received) != 2 || received[0] != 4 || received[1] != 5 {
		t.Fatalf("config B delivered %v, want [4 5]", received)
	}
	if len(confirms) != 2 || confirms[0] != 0xA || confirms[1] != 0xB {
		t.Fatalf("confirmations = %v, want [A B]", confirms)
	}
}

// fwSeq runs a sequence of refill batches, one per drain.
type fwSeq struct {
	steps []func(e *raw.Exec)
	i     int
	testSteps
}

func (f *fwSeq) Step(e *raw.Exec, s raw.Step) {
	if s != raw.Refill {
		f.run(s)
		return
	}
	if f.i < len(f.steps) {
		f.steps[f.i](e)
		f.i++
	}
}

// TestDynNeighborMessage sends a two-word dynamic message between adjacent
// processors on the general network.
func TestDynNeighborMessage(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	var got []raw.Word
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(0, 1, 2), 0xaa, 0xbb})
	}})
	rx := &fwSteps{}
	rx.once = func(e *raw.Exec) {
		ws := make([]raw.Word, 3)
		e.DynRecv(raw.DynGeneral, ws)
		rx.onDone(e, func() { got = append(got, ws...) })
	}
	chip.Tile(4).Exec().SetFirmware(rx)
	chip.Run(40)
	if len(got) != 3 || got[1] != 0xaa || got[2] != 0xbb {
		t.Fatalf("got %v, want header + [aa bb]", got)
	}
}

// TestDynDimensionOrdered routes a long message corner to corner and checks
// delivery and in-order payload.
func TestDynDimensionOrdered(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	payload := make([]raw.Word, 20)
	for i := range payload {
		payload[i] = raw.Word(i * 3)
	}
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.DynSend(raw.DynGeneral, append([]raw.Word{raw.DynHeader(3, 3, len(payload))}, payload...))
	}})
	var got []raw.Word
	rx := &fwSteps{}
	rx.once = func(e *raw.Exec) {
		ws := make([]raw.Word, 1+len(payload))
		e.DynRecv(raw.DynGeneral, ws)
		rx.onDone(e, func() { got = ws })
	}
	chip.Tile(15).Exec().SetFirmware(rx)
	chip.Run(100)
	if len(got) != 1+len(payload) {
		t.Fatalf("corner-to-corner message not delivered: got %d words", len(got))
	}
	for i, w := range payload {
		if got[1+i] != w {
			t.Fatalf("payload word %d corrupted", i)
		}
	}
}

// TestDynTwoWormsShareRouter checks that two worms to different outputs
// cross one router concurrently without interleaving words within either
// message.
func TestDynTwoWormsShareRouter(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	// Tile 1 sends to tile 13 (south through 5, 9); tile 4 sends to tile 7
	// (east through 5, 6). Both cross tile 5.
	mk := func(src int, hdr raw.Word, base raw.Word) {
		chip.Tile(src).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
			e.DynSend(raw.DynGeneral, []raw.Word{hdr, base, base + 1, base + 2})
		}})
	}
	mk(1, raw.DynHeader(1, 3, 3), 0x100)
	mk(4, raw.DynHeader(3, 1, 3), 0x200)
	var got13, got7 []raw.Word
	recv := func(tile int, got *[]raw.Word) {
		rx := &fwSteps{}
		rx.once = func(e *raw.Exec) {
			ws := make([]raw.Word, 4)
			e.DynRecv(raw.DynGeneral, ws)
			rx.onDone(e, func() { *got = ws })
		}
		chip.Tile(tile).Exec().SetFirmware(rx)
	}
	recv(13, &got13)
	recv(7, &got7)
	chip.Run(100)
	if len(got13) != 4 || got13[1] != 0x100 || got13[3] != 0x102 {
		t.Fatalf("tile 13 got %v", got13)
	}
	if len(got7) != 4 || got7[1] != 0x200 || got7[3] != 0x202 {
		t.Fatalf("tile 7 got %v", got7)
	}
}

// fakeDRAM is a minimal in-test memory controller serving the cache
// protocol with a fixed latency.
type fakeDRAM struct {
	width   int
	latency int
	mem     map[raw.Word]raw.Word
	pending []fakeReq
	buf     []raw.Word
	writes  int
}

type fakeReq struct {
	due  int64
	resp []raw.Word
}

// NextDue implements raw.Due: always due, so the device disarms macro
// windows while attached.
func (d *fakeDRAM) NextDue(cycle int64) int64 { return cycle }

func (d *fakeDRAM) Tick(cycle int64, arrived []raw.Word) []raw.Word {
	d.buf = append(d.buf, arrived...)
	// Frame complete messages.
	for len(d.buf) > 0 {
		_, _, plen := raw.DecodeDynHeader(d.buf[0])
		if len(d.buf) < 1+plen {
			break
		}
		msg := d.buf[:1+plen]
		d.buf = d.buf[1+plen:]
		op, tile := raw.DecodeMemCmd(msg[1])
		addr := msg[2]
		switch op {
		case raw.MemCmdRead:
			resp := []raw.Word{raw.DynHeader(tile%d.width, tile/d.width, 1+raw.CacheLineWords), addr}
			for i := 0; i < raw.CacheLineWords; i++ {
				resp = append(resp, d.mem[addr+raw.Word(i)])
			}
			d.pending = append(d.pending, fakeReq{due: cycle + int64(d.latency), resp: resp})
		case raw.MemCmdWrite:
			d.writes++
			for i := 0; i < raw.CacheLineWords; i++ {
				d.mem[addr+raw.Word(i)] = msg[3+i]
			}
		}
	}
	var out []raw.Word
	keep := d.pending[:0]
	for _, p := range d.pending {
		if p.due <= cycle {
			out = append(out, p.resp...)
		} else {
			keep = append(keep, p)
		}
	}
	d.pending = keep
	return out
}

func newFakeDRAM(width, latency int) *fakeDRAM {
	return &fakeDRAM{width: width, latency: latency, mem: make(map[raw.Word]raw.Word)}
}

// attachDRAMRows attaches one controller per row on the east edge, like
// the Raw system's edge memory ports.
func attachDRAMRows(chip *raw.Chip, d *fakeDRAM) {
	w := chip.Config().Width
	for y := 0; y < chip.Config().Height; y++ {
		chip.AttachDynDevice(y*w+w-1, raw.DirE, raw.DynMemory, d)
	}
}

// TestCacheHitAndMiss checks hit latency, miss handling, and write-back.
func TestCacheHitAndMiss(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	dram := newFakeDRAM(4, 20)
	for i := raw.Word(0); i < 64; i++ {
		dram.mem[0x1000+i] = 7 * i
	}
	attachDRAMRows(chip, dram)

	var v1, v2 raw.Word
	var c1, c2 int64 = -1, -1
	fw := &fwSeq{}
	fw.steps = []func(e *raw.Exec){
		func(e *raw.Exec) {
			e.CacheRead(0x1000, &v1)
			fw.onDone(e, func() { c1 = chip.Cycle() })
		},
		func(e *raw.Exec) {
			e.CacheRead(0x1003, &v2)
			fw.onDone(e, func() { c2 = chip.Cycle() })
		},
	}
	chip.Tile(5).Exec().SetFirmware(fw)
	chip.Run(200)
	if v1 != 0 || v2 != 21 {
		t.Fatalf("read values %d,%d want 0,21", v1, v2)
	}
	if c1 < 20 {
		t.Fatalf("miss completed in %d cycles, faster than DRAM latency", c1)
	}
	hitCycles := c2 - c1
	if hitCycles != raw.CacheHitCycles {
		t.Fatalf("hit took %d cycles, want %d", hitCycles, raw.CacheHitCycles)
	}
}

// TestIOContract pins, on both engines, how the I/O micro-ops move
// words and when firmware steps run: the cycle each received word lands
// in its destination, the cycle each op's OnDone step runs (after its
// last word has landed, at no cycle of its own) and the words a SendN
// sends. A RecvN discards the words past its destination, a SendN pads
// its source with zeros, and a DynRecv lands each word in the cycle it
// pops. A Then step costs one cycle in StateRun and runs in it; the ops
// a step enqueues run after the rest of the batch; and the step of an op
// that Reset discards never runs.
func TestIOContract(t *testing.T) {
	for _, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		dram := newFakeDRAM(4, 20)
		for i := raw.Word(0); i < raw.CacheLineWords; i++ {
			dram.mem[0x1000+i] = 7*i + 1
		}
		attachDRAMRows(chip, dram)
		// Tile 0's switch hands four west-edge words to the processor,
		// confirms, then routes four processor words out the north pins.
		mustProgram(t, chip.Tile(0), []raw.SwInstr{
			{Op: raw.SwRouteN, Arg: 4, Routes: []raw.Route{{Dst: raw.DirP, Src: raw.DirW}}},
			{Op: raw.SwNotify, Arg: 0xd0},
			{Op: raw.SwRouteN, Arg: 4, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirP}}},
			{Op: raw.SwHalt},
		})
		chip.StaticIn(0, raw.DirW).Push(11, 12, 13, 14)
		chip.Tile(1).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
			e.Compute(3)
			e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(0, 0, 2), 0xaa, 0xbb})
		}})
		// Tile 3's switch takes processor words only after it has passed
		// on the east-edge word pushed at cycle 20, so its processor's
		// third Send stalls until then.
		mustProgram(t, chip.Tile(3), []raw.SwInstr{
			{Op: raw.SwRouteN, Arg: 1, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirE}}},
			{Op: raw.SwRouteN, Arg: 3, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirP}}},
			{Op: raw.SwHalt},
		})

		// dst: Recv's word, RecvN's two and the word after them, the
		// switch's confirmation, the cache miss and hit, DynRecv's three.
		var dst [10]raw.Word
		var steps []string // each step's name, cycle and the words it saw landed
		step := func(name string, i int) func() {
			return func() {
				if i < 0 {
					steps = append(steps, fmt.Sprintf("%s@%d", name, chip.Cycle()))
					return
				}
				steps = append(steps, fmt.Sprintf("%s@%d:%#x", name, chip.Cycle(), dst[i]))
			}
		}
		fw0 := &fwSteps{}
		fw0.once = func(e *raw.Exec) {
			e.Recv(&dst[0])
			fw0.onDone(e, step("Recv", 0))
			e.RecvN(3, 2, dst[1:3])
			fw0.onDone(e, step("RecvN", 2))
			e.WaitSwitchDone(&dst[4])
			fw0.onDone(e, step("WaitSwitchDone", 4))
			e.SendN(4, []raw.Word{0x50, 0x51})
			e.CacheRead(0x1000, &dst[5])
			fw0.onDone(e, step("CacheRead miss", 5))
			e.CacheRead(0x1003, &dst[6])
			fw0.onDone(e, step("CacheRead hit", 6))
			e.DynRecv(raw.DynGeneral, dst[7:10])
			fw0.onDone(e, step("DynRecv", 9))
		}
		chip.Tile(0).Exec().SetFirmware(fw0)
		fw3 := &fwSteps{}
		fw3.once = func(e *raw.Exec) {
			e.Send(0x61)
			e.Send(0x62)
			e.Send(0x63)
			fw3.onDone(e, step("Send stalled", -1))
			fw3.then(e, func() {
				step("Then", -1)()
				e.Compute(1)
				fw3.onDone(e, step("enqueued by Then", -1))
			})
			e.Compute(2)
			fw3.onDone(e, step("rest of batch", -1))
		}
		chip.Tile(3).Exec().SetFirmware(fw3)
		// Tile 2's long Compute is discarded by a Reset at cycle 10.
		fw2 := &fwSteps{}
		fw2.once = func(e *raw.Exec) {
			e.Compute(50)
			fw2.onDone(e, step("discarded", -1))
		}
		chip.Tile(2).Exec().SetFirmware(fw2)

		var landed [10]int64 // the cycle each destination word was written, -1 never
		for i := range landed {
			landed[i] = -1
		}
		var states3 [100]raw.TileState // tile 3's processor state each cycle
		for c := 0; c < 100; c++ {
			switch c {
			case 10:
				chip.Tile(2).Exec().Reset()
			case 20:
				chip.StaticIn(3, raw.DirE).Push(0x60)
			}
			prev := dst
			chip.Step()
			for i := range dst {
				if dst[i] != prev[i] {
					landed[i] = chip.Cycle() - 1
				}
			}
			states3[c] = chip.Tile(3).Exec().State()
		}

		wantDst := [10]raw.Word{11, 12, 13, 0, 0xd0, 1, 22, raw.DynHeader(0, 0, 2), 0xaa, 0xbb}
		wantLanded := [10]int64{1, 2, 4, -1, 8, 57, 60, 61, 62, 63}
		if dst != wantDst || landed != wantLanded {
			t.Errorf("engine %v: destinations %v landed at %v, want %v at %v",
				eng, dst, landed, wantDst, wantLanded)
		}
		// Each OnDone step runs in the cycle its op's last word lands:
		// RecvN a cycle after its third word pops (cost 2), and the
		// stalled Send in the cycle its switch first takes a processor
		// word. The Then step runs in its own cycle; the batch's Compute
		// follows it, and the op the step enqueued runs last.
		wantSteps := []string{
			"Recv@1:0xb", "RecvN@7:0xd", "WaitSwitchDone@8:0xd0",
			"Send stalled@22", "Then@23", "rest of batch@25", "enqueued by Then@26",
			"CacheRead miss@57:0x1", "CacheRead hit@60:0x16", "DynRecv@63:0xbb",
		}
		if !slices.Equal(steps, wantSteps) {
			t.Errorf("engine %v: steps ran as %q, want %q", eng, steps, wantSteps)
		}
		if got := states3[22:27]; !slices.Equal(got, []raw.TileState{
			raw.StateRun, raw.StateRun, raw.StateRun, raw.StateRun, raw.StateRun}) {
			t.Errorf("engine %v: tile 3 states over cycles 22-26 %v, want all StateRun", eng, got)
		}
		if states3[21] != raw.StateStallSend {
			t.Errorf("engine %v: tile 3 state at cycle 21 %v, want StateStallSend", eng, states3[21])
		}
		words, cycles := chip.StaticOut(0, raw.DirN).Drain()
		if !slices.Equal(words, []raw.Word{0x50, 0x51, 0, 0}) || !slices.Equal(cycles, []int64{10, 11, 12, 13}) {
			t.Errorf("engine %v: SendN sent %#x at %v, want [0x50 0x51 0 0] at [10 11 12 13]",
				eng, words, cycles)
		}
	}
}

// TestCacheWriteBack dirties a line, forces eviction by touching the two
// conflicting ways, and checks the data reached DRAM.
func TestCacheWriteBack(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	dram := newFakeDRAM(4, 10)
	attachDRAMRows(chip, dram)

	// Three line-aligned addresses mapping to the same set: stride =
	// sets * lineWords = 512*8 = 4096 words.
	const a, b, c = 0x0100, 0x0100 + 4096, 0x0100 + 2*4096
	fw := &fwSeq{}
	fw.steps = []func(e *raw.Exec){
		func(e *raw.Exec) {
			e.CacheWrite(a, 0xbeef)
		},
		func(e *raw.Exec) { e.CacheRead(b, nil) },
		func(e *raw.Exec) { e.CacheRead(c, nil) },
		func(e *raw.Exec) { // a has been evicted; reread from DRAM
			var w raw.Word
			e.CacheRead(a, &w)
			fw.onDone(e, func() {
				if w != 0xbeef {
					t.Errorf("read-after-writeback got %#x, want 0xbeef", w)
				}
			})
		},
	}
	chip.Tile(0).Exec().SetFirmware(fw)
	chip.Run(500)
	if dram.writes == 0 {
		t.Fatal("dirty eviction never wrote back to DRAM")
	}
	if dram.mem[a] != 0xbeef {
		t.Fatalf("DRAM content %#x, want 0xbeef", dram.mem[a])
	}
}

// TestInvalidateCacheRangeInFlight rewrites a DRAM line and invalidates
// it between every two cycles of a miss and then a hit on it. The access
// in flight completes on the words it holds, and a read issued after the
// invalidation always sees the new words: neither a line filled from a
// reply read before the rewrite nor a line hit across it survives.
// Invalidating the neighbouring ranges leaves the line resident.
func TestInvalidateCacheRangeInFlight(t *testing.T) {
	const line raw.Word = 0x1000
	run := func(at int64, inval func(tl *raw.Tile)) (got []raw.Word, misses int64) {
		chip := raw.NewChip(raw.DefaultConfig())
		dram := newFakeDRAM(4, 20)
		for i := raw.Word(0); i < raw.CacheLineWords; i++ {
			dram.mem[line+i] = 100 + i
		}
		attachDRAMRows(chip, dram)
		fw := &fwSeq{}
		read := func(addr raw.Word) func(e *raw.Exec) {
			return func(e *raw.Exec) {
				var w raw.Word
				e.CacheRead(addr, &w)
				fw.onDone(e, func() { got = append(got, w) })
			}
		}
		fw.steps = []func(e *raw.Exec){
			read(line), read(line + 3),
			func(e *raw.Exec) { e.Compute(100) },
			read(line + 5),
		}
		tl := chip.Tile(5)
		tl.Exec().SetFirmware(fw)
		chip.Run(at)
		for i := raw.Word(0); i < raw.CacheLineWords; i++ {
			dram.mem[line+i] = 200 + i
		}
		inval(tl)
		chip.Run(300 - at)
		_, misses = tl.CacheStats()
		return got, misses
	}
	// One range ends on the line's first word, the other starts inside it.
	for _, rg := range [][2]raw.Word{{line - 1, 2}, {line + 6, 9}} {
		for at := int64(0); at < 60; at++ {
			got, _ := run(at, func(tl *raw.Tile) { tl.InvalidateCacheRange(rg[0], int(rg[1])) })
			if len(got) != 3 || got[2] != 205 {
				t.Fatalf("%#x+%d invalidated after cycle %d: reads %v, want the last to be 205", rg[0], rg[1], at, got)
			}
		}
	}
	got, misses := run(60, func(tl *raw.Tile) {
		tl.InvalidateCacheRange(line-raw.CacheLineWords, raw.CacheLineWords)
		tl.InvalidateCacheRange(line+raw.CacheLineWords, 1)
	})
	if misses != 1 || got[2] != 105 {
		t.Fatalf("neighbouring ranges: reads %v with %d misses, want 105 last and 1 miss", got, misses)
	}
}

// TestDeterminism runs the same mixed workload twice and requires
// identical egress timing.
func TestDeterminism(t *testing.T) {
	run := func() ([]raw.Word, []int64) {
		chip := raw.NewChip(raw.DefaultConfig())
		for x := 0; x < 4; x++ {
			mustProgram(t, chip.Tile(x), routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW}))
		}
		chip.Tile(8).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
			e.DynSend(raw.DynGeneral, []raw.Word{raw.DynHeader(3, 3, 2), 1, 2})
		}})
		in := chip.StaticIn(0, raw.DirW)
		for i := 0; i < 50; i++ {
			in.Push(raw.Word(i))
		}
		chip.Run(100)
		w, c := chip.StaticOut(3, raw.DirE).Drain()
		return w, c
	}
	w1, c1 := run()
	w2, c2 := run()
	if len(w1) != len(w2) {
		t.Fatalf("different output counts: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] || c1[i] != c2[i] {
			t.Fatalf("run divergence at word %d", i)
		}
	}
}

// TestMulticastFanout checks that one source word can drive two crossbar
// outputs in one cycle (the mechanism behind §8.6 multicast).
func TestMulticastFanout(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	mustProgram(t, chip.Tile(0), routeAll(
		raw.Route{Dst: raw.DirE, Src: raw.DirW},
		raw.Route{Dst: raw.DirS, Src: raw.DirW},
	))
	mustProgram(t, chip.Tile(1), routeAll(raw.Route{Dst: raw.DirN, Src: raw.DirW}))
	mustProgram(t, chip.Tile(4), routeAll(raw.Route{Dst: raw.DirW, Src: raw.DirN}))
	in := chip.StaticIn(0, raw.DirW)
	for i := 0; i < 10; i++ {
		in.Push(raw.Word(i + 1))
	}
	chip.Run(30)
	e1, _ := chip.StaticOut(1, raw.DirN).Drain()
	e2, _ := chip.StaticOut(4, raw.DirW).Drain()
	if len(e1) != 10 || len(e2) != 10 {
		t.Fatalf("fanout delivered %d and %d words, want 10 and 10", len(e1), len(e2))
	}
	for i := 0; i < 10; i++ {
		if e1[i] != raw.Word(i+1) || e2[i] != raw.Word(i+1) {
			t.Fatalf("fanout corrupted word %d", i)
		}
	}
}

// TestValidateProgram exercises program validation errors.
func TestValidateProgram(t *testing.T) {
	cases := []struct {
		name string
		prog []raw.SwInstr
	}{
		{"dup-dst", []raw.SwInstr{{Op: raw.SwRoute, Routes: []raw.Route{
			{Dst: raw.DirE, Src: raw.DirW}, {Dst: raw.DirE, Src: raw.DirN}}}}},
		{"jump-oob", []raw.SwInstr{{Op: raw.SwJump, Arg: 5}}},
		{"routen-zero", []raw.SwInstr{{Op: raw.SwRouteN, Arg: 0}}},
	}
	for _, c := range cases {
		if err := raw.ValidateProgram(c.prog); err == nil {
			t.Errorf("%s: validation accepted a bad program", c.name)
		}
	}
	if err := raw.ValidateProgram(routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW})); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	long := make([]raw.SwInstr, raw.SwMemWords+1)
	for i := range long {
		long[i] = raw.SwInstr{Op: raw.SwRoute}
	}
	if err := raw.ValidateProgram(long); err == nil {
		t.Error("over-budget program accepted")
	}
}

// TestDynHeaderRoundTrip property-checks header encode/decode.
func TestDynHeaderRoundTrip(t *testing.T) {
	f := func(x, y uint8, l uint8) bool {
		dx := int(x%34) - 1
		dy := int(y%34) - 1
		pl := int(l % raw.MaxDynMessageWords)
		gx, gy, gl := raw.DecodeDynHeader(raw.DynHeader(dx, dy, pl))
		return gx == dx && gy == dy && gl == pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDirOpposite checks mesh direction geometry.
func TestDirOpposite(t *testing.T) {
	pairs := [][2]raw.Dir{{raw.DirN, raw.DirS}, {raw.DirE, raw.DirW}}
	for _, p := range pairs {
		if p[0].Opposite() != p[1] || p[1].Opposite() != p[0] {
			t.Fatalf("%s/%s not opposite", p[0], p[1])
		}
	}
}

// TestTileStateAccounting checks the utilization counters used by the
// Figure 7-3 study.
func TestTileStateAccounting(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.Compute(5)
		e.Recv(nil) // will stall forever: nothing routes to P
	}})
	chip.Run(20)
	counts := chip.Tile(0).Exec().StateCounts()
	if counts[raw.StateRun] != 5 {
		t.Fatalf("run cycles = %d, want 5", counts[raw.StateRun])
	}
	if counts[raw.StateStallRecv] != 15 {
		t.Fatalf("stall-recv cycles = %d, want 15", counts[raw.StateStallRecv])
	}
	if !raw.StateStallRecv.Blocked() || raw.StateRun.Blocked() {
		t.Fatal("Blocked() classification wrong")
	}
}

// TestRandomSwitchProgramsNoPanic: randomly generated valid switch
// programs never crash the simulator or corrupt its invariants (words may
// deadlock or drop at boundaries, but the chip always steps).
func TestRandomSwitchProgramsNoPanic(t *testing.T) {
	seed := uint64(99)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	for trial := 0; trial < 30; trial++ {
		chip := raw.NewChip(raw.DefaultConfig())
		for tile := 0; tile < 16; tile++ {
			n := 1 + next(6)
			prog := make([]raw.SwInstr, 0, n+1)
			for k := 0; k < n; k++ {
				var routes []raw.Route
				var used [5]bool
				for rts := next(3); rts >= 0; rts-- {
					d := raw.Dir(next(5))
					if used[d] {
						continue
					}
					used[d] = true
					routes = append(routes, raw.Route{Dst: d, Src: raw.Dir(next(5))})
				}
				switch next(3) {
				case 0:
					prog = append(prog, raw.SwInstr{Op: raw.SwRoute, Routes: routes})
				case 1:
					prog = append(prog, raw.SwInstr{Op: raw.SwRouteN, Arg: raw.Word(1 + next(8)), Routes: routes})
				default:
					prog = append(prog, raw.SwInstr{Op: raw.SwJump, Arg: raw.Word(next(k + 1)), Routes: routes})
				}
			}
			prog = append(prog, raw.SwInstr{Op: raw.SwJump, Arg: 0})
			if err := chip.Tile(tile).SetSwitchProgram(prog); err != nil {
				t.Fatalf("generated invalid program: %v", err)
			}
		}
		// Feed every boundary input a few words.
		for tile := 0; tile < 16; tile++ {
			for _, d := range []raw.Dir{raw.DirN, raw.DirE, raw.DirS, raw.DirW} {
				if chip.Tile(tile).Boundary(d) {
					in := chip.StaticIn(tile, d)
					for i := 0; i < 8; i++ {
						in.Push(raw.Word(trial*100 + i))
					}
				}
			}
		}
		chip.Run(500)
		if chip.Cycle() != 500 {
			t.Fatalf("trial %d: chip stopped stepping", trial)
		}
	}
}
