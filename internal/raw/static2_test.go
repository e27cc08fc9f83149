package raw_test

import (
	"testing"

	"repro/internal/raw"
)

// TestSecondStaticNetworkIndependent: both static networks of a tile
// stream concurrently at one word per cycle each — the "two static switch
// crossbars" of §3.1, and the idle capacity §8.1 points at.
func TestSecondStaticNetworkIndependent(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	for x := 0; x < 4; x++ {
		mustProgram(t, chip.Tile(x), routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW}))
		if err := chip.Tile(x).SetSwitchProgramOn(1, routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW})); err != nil {
			t.Fatal(err)
		}
	}
	in0 := chip.StaticIn(0, raw.DirW)
	in1 := chip.StaticInOn(1, 0, raw.DirW)
	const n = 100
	for i := 0; i < n; i++ {
		in0.Push(raw.Word(i))
		in1.Push(raw.Word(1000 + i))
	}
	chip.Run(n + 16)
	w0, c0 := chip.StaticOut(3, raw.DirE).Drain()
	w1, c1 := chip.StaticOutOn(1, 3, raw.DirE).Drain()
	if len(w0) != n || len(w1) != n {
		t.Fatalf("delivered %d and %d words, want %d each", len(w0), len(w1), n)
	}
	for i := 0; i < n; i++ {
		if w0[i] != raw.Word(i) || w1[i] != raw.Word(1000+i) {
			t.Fatalf("word %d crossed networks: %d / %d", i, w0[i], w1[i])
		}
	}
	// Both networks sustain one word per cycle simultaneously.
	for i := 1; i < n; i++ {
		if c0[i] != c0[i-1]+1 || c1[i] != c1[i-1]+1 {
			t.Fatalf("networks did not both stream at 1 word/cycle")
		}
	}
}

// TestProcessorUsesBothNetworks: one processor sends on network 0 and
// network 1 via the separate register-mapped ports.
func TestProcessorUsesBothNetworks(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	mustProgram(t, chip.Tile(0), routeAll(raw.Route{Dst: raw.DirN, Src: raw.DirP}))
	if err := chip.Tile(0).SetSwitchProgramOn(1, routeAll(raw.Route{Dst: raw.DirW, Src: raw.DirP})); err != nil {
		t.Fatal(err)
	}
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.Send(0xAAA)       // network 0
		e.SendOn(1, 0xBBB)  // network 1
		e.SendOn(0, 0xAAA2) // explicit network 0
	}})
	chip.Run(20)
	w0, _ := chip.StaticOut(0, raw.DirN).Drain()
	w1, _ := chip.StaticOutOn(1, 0, raw.DirW).Drain()
	if len(w0) != 2 || w0[0] != 0xAAA || w0[1] != 0xAAA2 {
		t.Fatalf("net0 got %v", w0)
	}
	if len(w1) != 1 || w1[0] != 0xBBB {
		t.Fatalf("net1 got %v", w1)
	}
}

// TestSecondNetworkControlRegisters: recvpc/routev/notify work through
// network 1's own control registers.
func TestSecondNetworkControlRegisters(t *testing.T) {
	chip := raw.NewChip(raw.DefaultConfig())
	prog := []raw.SwInstr{
		{Op: raw.SwRecvPC},
		{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}},
		{Op: raw.SwNotify, Arg: 7},
		{Op: raw.SwJump, Arg: 0},
	}
	if err := chip.Tile(0).SetSwitchProgramOn(1, prog); err != nil {
		t.Fatal(err)
	}
	var done raw.Word
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.WriteSwitchPCOn(1, 1)
		e.WriteSwitchCountOn(1, 3)
		e.WaitSwitchDoneOn(1, &done)
	}})
	in := chip.StaticInOn(1, 0, raw.DirW)
	for i := 0; i < 5; i++ {
		in.Push(raw.Word(40 + i))
	}
	chip.Run(40)
	if done != 7 {
		t.Fatalf("notify value %d, want 7", done)
	}
	words, _ := chip.StaticOutOn(1, 0, raw.DirN).Drain()
	if len(words) != 3 {
		t.Fatalf("routev on net 1 moved %d words, want 3", len(words))
	}
}
