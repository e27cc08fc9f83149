package asm_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/raw"
	"repro/internal/raw/asm"
)

// TestFigure3_2SendLatency reproduces the paper's Figure 3-2
// microbenchmark: tile 0 executes `or $csto,$0,$5`, switch 0 routes the
// word South, switch 4 routes it to the processor, and tile 4 executes
// `and $5,$5,$csti`. The thesis counts five cycles end to end, three of
// which are network latency (send-to-use).
func TestFigure3_2SendLatency(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())

	if err := chip.Tile(0).SetSwitchProgram(asm.MustAssembleSwitch(`
		route $csto->$cSo
		halt
	`)); err != nil {
		t.Fatal(err)
	}
	if err := chip.Tile(4).SetSwitchProgram(asm.MustAssembleSwitch(`
		route $cNi->$csti
		halt
	`)); err != nil {
		t.Fatal(err)
	}

	sender := asm.MustLoad(chip.Tile(0), `
		or $csto, $0, $5
		halt
	`)
	sender.SetReg(5, 0x0f0f)
	recv := asm.MustLoad(chip.Tile(4), `
		and $5, $5, $csti
		halt
	`)
	recv.SetReg(5, 0xff00)

	// Step until the AND has retired, recording the cycle.
	var andDone int64 = -1
	for c := int64(0); c < 20; c++ {
		chip.Step()
		if recv.Retired >= 1 && andDone < 0 {
			andDone = chip.Cycle() // cycles completed so far
		}
	}
	if got := recv.Reg(5); got != 0x0f00 {
		t.Fatalf("AND result %#x, want 0x0f00", got)
	}
	// Figure 3-2: "the code sequence takes five cycles to execute".
	if andDone != 5 {
		t.Fatalf("tile-to-tile send-and-use took %d cycles, want 5 (Figure 3-2)", andDone)
	}
}

// TestSendToUseThreeCycles checks the send-to-use component: the word is
// usable by tile 4 three cycles after the OR executed.
func TestSendToUseThreeCycles(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	_ = chip.Tile(0).SetSwitchProgram(asm.MustAssembleSwitch("route $csto->$cSo\nhalt"))
	_ = chip.Tile(4).SetSwitchProgram(asm.MustAssembleSwitch("route $cNi->$csti\nhalt"))
	sender := asm.MustLoad(chip.Tile(0), "or $csto, $0, $5\nhalt")
	sender.SetReg(5, 42)
	recv := asm.MustLoad(chip.Tile(4), "move $6, $csti\nhalt")

	var sendCycle, useCycle int64 = -1, -1
	for c := int64(0); c < 20; c++ {
		chip.Step()
		if sender.Retired >= 1 && sendCycle < 0 {
			sendCycle = chip.Cycle()
		}
		if recv.Retired >= 1 && useCycle < 0 {
			useCycle = chip.Cycle()
		}
	}
	if recv.Reg(6) != 42 {
		t.Fatalf("received %d, want 42", recv.Reg(6))
	}
	if useCycle-sendCycle != 3 {
		t.Fatalf("send-to-use latency %d cycles, want 3 (Figure 3-2)", useCycle-sendCycle)
	}
}

// TestALULoop runs a small compute loop and checks both the result and the
// cycle count (each ALU op and branch costs one cycle).
func TestALULoop(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	it := asm.MustLoad(chip.Tile(0), `
		li   $1, 0        ; sum
		li   $2, 1        ; i
		li   $3, 11       ; limit
	loop:
		add  $1, $1, $2
		addi $2, $2, 1
		bne  $2, $3, loop
		halt
	`)
	chip.Run(100)
	if !it.Halted() {
		t.Fatal("program did not halt")
	}
	if it.Reg(1) != 55 {
		t.Fatalf("sum = %d, want 55", it.Reg(1))
	}
	// 3 li + 10*(add,addi,bne) = 33 retired instructions, 1 cycle each.
	if it.Retired != 33 {
		t.Fatalf("retired %d instructions, want 33", it.Retired)
	}
}

// TestStreamingMove checks the `move $csto,$csti` forwarding idiom used by
// the router's ingress/egress fast path.
func TestStreamingMove(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	// Tile 0's switch feeds the edge stream to the processor and the
	// processor's output to the South. The combined route instruction is
	// atomic (all routes fire or none), so the pipeline is primed with a
	// couple of processor-fill cycles first — the software-pipelining the
	// thesis's §6.2 expansion numbers exist to get right.
	_ = chip.Tile(0).SetSwitchProgram(asm.MustAssembleSwitch(`
		routen 2, $cWi->$csti
		fwd: jump fwd with $cWi->$csti, $csto->$cSo
	`))
	_ = chip.Tile(4).SetSwitchProgram(asm.MustAssembleSwitch(
		"fwd: jump fwd with $cNi->$cWo"))
	asm.MustLoad(chip.Tile(0), `
	loop:
		move $csto, $csti
		jmp  loop
	`)
	in := chip.StaticIn(0, raw.DirW)
	const n = 30
	// The atomic combined route keeps the last two words in flight when
	// the input dries up, so push two extra and expect n delivered.
	for i := 0; i < n+2; i++ {
		in.Push(raw.Word(i * 5))
	}
	chip.Run(3*n + 40)
	words, _ := chip.StaticOut(4, raw.DirW).Drain()
	if len(words) != n {
		t.Fatalf("forwarded %d words, want %d", len(words), n)
	}
	for i, w := range words {
		if w != raw.Word(i*5) {
			t.Fatalf("word %d corrupted", i)
		}
	}
}

// TestLoadStore exercises lw/sw through the cache with a DRAM device.
func TestLoadStore(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	dram := newDRAM(4, 12)
	for y := 0; y < 4; y++ {
		chip.AttachDynDevice(y*4+3, raw.DirE, raw.DynMemory, dram)
	}
	it := asm.MustLoad(chip.Tile(0), `
		li $1, 0x200
		li $2, 77
		sw $2, 4($1)
		lw $3, 4($1)
		halt
	`)
	chip.Run(300)
	if !it.Halted() {
		t.Fatal("program did not halt")
	}
	if it.Reg(3) != 77 {
		t.Fatalf("lw read %d, want 77", it.Reg(3))
	}
}

// TestAssemblerErrors checks diagnostics.
func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"frobnicate $1, $2, $3",
		"add $1, $2",
		"beq $1, $2, nowhere",
		"lw $1, 4[$2]",
		"add $99, $1, $2",
	}
	for _, src := range bad {
		if _, err := asm.AssembleTile(src); err == nil {
			t.Errorf("assembler accepted %q", src)
		}
	}
	if _, err := asm.AssembleSwitch("route $cXo->$csti"); err == nil {
		t.Error("switch assembler accepted bad port")
	}
	if _, err := asm.AssembleSwitch("jump nowhere"); err == nil {
		t.Error("switch assembler accepted undefined label")
	}
}

// TestIMemBudget checks the 8,192-word instruction memory limit.
func TestIMemBudget(t *testing.T) {
	var b strings.Builder
	for i := 0; i < raw.IMemWords+1; i++ {
		b.WriteString("nop\n")
	}
	if _, err := asm.AssembleTile(b.String()); err == nil {
		t.Fatal("over-budget tile program accepted")
	}
}

// newDRAM is a copy of the raw package test helper (kept local: the
// protocol is public, the helper is not).
type dramDev struct {
	width   int
	latency int
	mem     map[raw.Word]raw.Word
	pending []pendingResp
	buf     []raw.Word
}

type pendingResp struct {
	due  int64
	resp []raw.Word
}

func newDRAM(width, latency int) *dramDev {
	return &dramDev{width: width, latency: latency, mem: make(map[raw.Word]raw.Word)}
}

// NextDue implements raw.Due: always due, so the device disarms macro
// windows while attached.
func (d *dramDev) NextDue(cycle int64) int64 { return cycle }

func (d *dramDev) Tick(cycle int64, arrived []raw.Word) []raw.Word {
	d.buf = append(d.buf, arrived...)
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
			d.pending = append(d.pending, pendingResp{due: cycle + int64(d.latency), resp: resp})
		case raw.MemCmdWrite:
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

// TestSubroutineJALJR: an iterative fibonacci in a called function, using
// jal/jr linkage and slt-driven loops.
func TestSubroutineJALJR(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	it := asm.MustLoad(chip.Tile(0), `
		li   $4, 10       ; n
		jal  fib
		move $10, $2      ; save result
		li   $4, 1
		jal  fib
		move $11, $2
		halt

	; fib(n in $4) -> $2, clobbers $5,$6,$7,$8
	fib:
		li   $5, 0        ; a
		li   $6, 1        ; b
		li   $7, 0        ; i
	floop:
		slt  $8, $7, $4
		beq  $8, $0, fdone
		add  $2, $5, $6
		move $5, $6
		move $6, $2
		addi $7, $7, 1
		jmp  floop
	fdone:
		move $2, $5
		jr   $31
	`)
	chip.Run(400)
	if !it.Halted() {
		t.Fatal("did not halt")
	}
	if it.Reg(10) != 55 {
		t.Fatalf("fib(10) = %d, want 55", it.Reg(10))
	}
	if it.Reg(11) != 1 {
		t.Fatalf("fib(1) = %d, want 1", it.Reg(11))
	}
}

// TestSLTVariants checks signed vs unsigned comparison.
func TestSLTVariants(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	it := asm.MustLoad(chip.Tile(0), `
		li   $1, -1        ; 0xffffffff
		li   $2, 1
		slt  $3, $1, $2    ; signed: -1 < 1 -> 1
		sltu $4, $1, $2    ; unsigned: 0xffffffff < 1 -> 0
		slti $5, $2, 100   ; 1 < 100 -> 1
		halt
	`)
	chip.Run(50)
	if it.Reg(3) != 1 || it.Reg(4) != 0 || it.Reg(5) != 1 {
		t.Fatalf("slt=%d sltu=%d slti=%d, want 1,0,1", it.Reg(3), it.Reg(4), it.Reg(5))
	}
}

// TestMemcpyLoop: a lw/sw copy loop through the data cache and DRAM,
// verified by reading the destination back.
func TestMemcpyLoop(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	dram := newDRAM(4, 10)
	for y := 0; y < 4; y++ {
		chip.AttachDynDevice(y*4+3, raw.DirE, raw.DynMemory, dram)
	}
	for i := raw.Word(0); i < 16; i++ {
		dram.mem[0x100+i] = 3 * i
	}
	it := asm.MustLoad(chip.Tile(0), `
		li   $1, 0x100    ; src
		li   $2, 0x200    ; dst
		li   $3, 16       ; n
		li   $4, 0        ; i
	loop:
		slt  $5, $4, $3
		beq  $5, $0, done
		lw   $6, 0($1)
		sw   $6, 0($2)
		addi $1, $1, 1
		addi $2, $2, 1
		addi $4, $4, 1
		jmp  loop
	done:
		li   $9, 0x200
		lw   $10, 0($9)   ; dst[0]  = 0
		lw   $11, 7($9)   ; dst[7]  = 21
		lw   $12, 15($9)  ; dst[15] = 45
		halt
	`)
	chip.Run(5000)
	if !it.Halted() {
		t.Fatal("memcpy did not halt")
	}
	if it.Reg(10) != 0 || it.Reg(11) != 21 || it.Reg(12) != 45 {
		t.Fatalf("readback %d,%d,%d want 0,21,45", it.Reg(10), it.Reg(11), it.Reg(12))
	}
}

// TestLoadStoreRetireCycles pins, on both engines, the cycle at which
// each instruction of a load/store sequence retires (cycles completed
// when Retired advances): a store retires in the cycle its cache access
// starts, miss or hit (3, 47); a load into a register in the cycle the
// word returns (42 after the store's line fill, 86 after a read miss);
// a load into $csto in the cycle the word leaves for the switch, one
// cycle after its 3-cycle hit (46).
func TestLoadStoreRetireCycles(t *testing.T) {
	for _, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		dram := newDRAM(4, 12)
		for y := 0; y < 4; y++ {
			chip.AttachDynDevice(y*4+3, raw.DirE, raw.DynMemory, dram)
		}
		if err := chip.Tile(0).SetSwitchProgram(asm.MustAssembleSwitch(`
			route $csto->$cWo
			halt
		`)); err != nil {
			t.Fatal(err)
		}
		it := asm.MustLoad(chip.Tile(0), `
			li   $1, 0x200
			li   $2, 77
			sw   $2, 4($1)     ; write miss: the line comes from DRAM
			lw   $3, 4($1)     ; hit
			lw   $csto, 4($1)  ; hit, the word leaves through $csto
			sw   $3, 5($1)     ; hit
			lw   $4, 0x400($0) ; read miss
			halt
		`)
		var got []int64
		for c := 0; c < 300 && !it.Halted(); c++ {
			n := it.Retired
			chip.Step()
			if it.Retired != n {
				got = append(got, chip.Cycle())
			}
		}
		if it.Reg(3) != 77 {
			t.Fatalf("engine %v: lw read %d, want 77", eng, it.Reg(3))
		}
		if want := []int64{1, 2, 3, 42, 46, 47, 86}; !slices.Equal(got, want) {
			t.Errorf("engine %v: instructions retired at cycles %v, want %v", eng, got, want)
		}
	}
}
