package fault

import (
	"testing"

	"repro/internal/raw"
)

// route W->N forever on tile 0: a one-instruction streaming loop between
// two boundary links, the smallest fabric a link fault can bite.
func streamChip(t *testing.T) *raw.Chip {
	t.Helper()
	chip := raw.NewChip(raw.DefaultConfig())
	prog := []raw.SwInstr{{Op: raw.SwJump, Arg: 0,
		Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}}}
	if err := chip.Tile(0).SetSwitchProgram(prog); err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestRoundTrip(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindLink, Start: 100, Dur: 50, Tile: 4, Dir: raw.DirW},
		{Kind: KindFlap, Start: 0, Dur: 10, Repeat: 3, Tile: 7, Dir: raw.DirE, Net: 1},
		{Kind: KindFreeze, Start: 5, Dur: 1000, Tile: 10},
		{Kind: KindCrash, Start: 2000, Tile: 5},
		{Kind: KindCorrupt, Tile: 4, Dir: raw.DirW, WordIdx: 17, Bit: 31},
		{Kind: KindDrop, Tile: 8, Dir: raw.DirW, WordIdx: 3, Count: 2},
		{Kind: KindDRAM, Start: 50, Dur: 25, Extra: 300},
		{Kind: KindKillChip, Start: 400, Tile: 3},
		{Kind: KindRestoreChip, Start: 900, Tile: 3},
	}}
	text := s.String()
	re, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	if re.String() != text {
		t.Fatalf("round trip changed encoding:\n %q\n %q", text, re.String())
	}
	if len(re.Events) != len(s.Events) {
		t.Fatalf("round trip changed event count: %d != %d", len(re.Events), len(s.Events))
	}
	for i := range s.Events {
		if re.Events[i] != s.Events[i] {
			t.Errorf("event %d changed: %+v != %+v", i, re.Events[i], s.Events[i])
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"link:t0.w",                        // missing window
		"link@5:t0.w",                      // missing dur
		"link@5+0:t0.w",                    // zero dur
		"freeze@1+2:t0.w",                  // trailing dir on a tile fault
		"crash@1:x0",                       // bad tile
		"corrupt:t0.w.w1",                  // missing bit
		"corrupt:t0.w.w1.b32",              // bit out of range
		"drop:t0.w.w1",                     // missing count
		"dram@1+1:5",                       // missing '+'
		"bogus@1+1:t0",                     // unknown kind
		"link@1+1:t0.p",                    // processor port is not a link
		"link@1+1:t0.w.n9",                 // bad net
		"link@99999999999999999999+1:t0.w", // overflow
		"killchip:c1",                      // missing cycle
		"killchip@5:t1",                    // tile target, not chip
		"killchip@5:c1024",                 // chip out of range
		"restorechip@5+10:c1",              // controls take no duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestChipControls: killchip@/restorechip@ ride the schedule as
// fabric-level controls — sorted out by ChipControls, skipped by the
// per-chip injector (Controls likewise excludes them).
func TestChipControls(t *testing.T) {
	s := MustParse("restorechip@900:c2;killchip@100:c2;freeze@5+10:t0;restore@50:p1")
	ctls := s.ChipControls()
	if len(ctls) != 2 || ctls[0].Kind != KindKillChip || ctls[0].Start != 100 ||
		ctls[1].Kind != KindRestoreChip || ctls[1].Tile != 2 {
		t.Fatalf("ChipControls = %+v", ctls)
	}
	for _, c := range s.Controls() {
		if c.Kind == KindKillChip || c.Kind == KindRestoreChip {
			t.Fatalf("chip control leaked into router controls: %+v", c)
		}
	}
	chip := streamChip(t)
	chip.InstallFaults(NewInjector(s, chip.NumTiles())) // must not panic or inject
	in := chip.StaticIn(0, raw.DirW)
	for w := 0; w < 4; w++ {
		in.Push(raw.Word(w))
	}
	chip.Run(30)
	if words, _ := chip.StaticOut(0, raw.DirN).Drain(); len(words) != 4 {
		t.Fatalf("chip controls perturbed the chip: %d words", len(words))
	}
}

func TestLinkStallDelaysWords(t *testing.T) {
	chip := streamChip(t)
	chip.InstallFaults(NewInjector(MustParse("link@2+30:t0.w"), chip.NumTiles()))
	in := chip.StaticIn(0, raw.DirW)
	for w := 0; w < 10; w++ {
		in.Push(raw.Word(w))
	}
	chip.Run(60)
	words, cycles := chip.StaticOut(0, raw.DirN).Drain()
	if len(words) != 10 {
		t.Fatalf("delivered %d words, want 10", len(words))
	}
	for i, w := range words {
		if w != raw.Word(i) {
			t.Fatalf("word %d = %d, corrupted by a pure stall", i, w)
		}
	}
	// The stall covers cycles [2,32): no word may cross the pins then.
	for i, c := range cycles {
		if c >= 2 && c < 32 {
			t.Fatalf("word %d exited at cycle %d, inside the stall window", i, c)
		}
	}
	if cycles[len(cycles)-1] < 32 {
		t.Fatalf("last word exited at %d, before the stall lifted", cycles[len(cycles)-1])
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	chip := streamChip(t)
	chip.InstallFaults(NewInjector(MustParse("corrupt:t0.w.w3.b5"), chip.NumTiles()))
	in := chip.StaticIn(0, raw.DirW)
	for w := 0; w < 8; w++ {
		in.Push(raw.Word(100 + w))
	}
	chip.Run(30)
	words, _ := chip.StaticOut(0, raw.DirN).Drain()
	if len(words) != 8 {
		t.Fatalf("delivered %d words, want 8", len(words))
	}
	for i, w := range words {
		want := raw.Word(100 + i)
		if i == 3 {
			want ^= 1 << 5
		}
		if w != want {
			t.Errorf("word %d = %d, want %d", i, w, want)
		}
	}
}

func TestEdgeDropLosesWords(t *testing.T) {
	chip := streamChip(t)
	chip.InstallFaults(NewInjector(MustParse("drop:t0.w.w2+3"), chip.NumTiles()))
	in := chip.StaticIn(0, raw.DirW)
	for w := 0; w < 10; w++ {
		in.Push(raw.Word(w))
	}
	chip.Run(30)
	words, _ := chip.StaticOut(0, raw.DirN).Drain()
	want := []raw.Word{0, 1, 5, 6, 7, 8, 9}
	if len(words) != len(want) {
		t.Fatalf("delivered %d words, want %d", len(words), len(want))
	}
	for i, w := range words {
		if w != want[i] {
			t.Errorf("word %d = %d, want %d", i, w, want[i])
		}
	}
	if got := in.Consumed(); got != int64(len(want)) {
		t.Errorf("Consumed() = %d, want %d", got, len(want))
	}
}

func TestFreezeAndCrashStopTile(t *testing.T) {
	chip := streamChip(t)
	chip.InstallFaults(NewInjector(MustParse("freeze@0+40:t0"), chip.NumTiles()))
	in := chip.StaticIn(0, raw.DirW)
	in.Push(1, 2, 3)
	chip.Run(40)
	if words, _ := chip.StaticOut(0, raw.DirN).Drain(); len(words) != 0 {
		t.Fatalf("frozen tile moved %d words", len(words))
	}
	chip.Run(20)
	if words, _ := chip.StaticOut(0, raw.DirN).Drain(); len(words) != 3 {
		t.Fatalf("thawed tile delivered %d words, want 3", len(words))
	}

	chip2 := streamChip(t)
	chip2.InstallFaults(NewInjector(MustParse("crash@5:t0"), chip2.NumTiles()))
	chip2.StaticIn(0, raw.DirW).Push(1, 2, 3, 4, 5, 6, 7, 8)
	chip2.Run(100)
	words, _ := chip2.StaticOut(0, raw.DirN).Drain()
	if len(words) >= 8 {
		t.Fatalf("crashed tile delivered all %d words", len(words))
	}
}

func TestFlapWindows(t *testing.T) {
	inj := NewInjector(MustParse("flap@10+5x3:t2.e"), 16)
	stalledAt := func(c int64) bool {
		inj.BeginCycle(c)
		return inj.LinkStalled(2, raw.DirE, 0)
	}
	// Windows: [10,15) [20,25) [30,35).
	for _, tc := range []struct {
		cycle int64
		want  bool
	}{{9, false}, {10, true}, {14, true}, {15, false}, {19, false},
		{20, true}, {24, true}, {25, false}, {30, true}, {34, true}, {35, false}, {100, false}} {
		if got := stalledAt(tc.cycle); got != tc.want {
			t.Errorf("cycle %d: stalled = %v, want %v", tc.cycle, got, tc.want)
		}
	}
}

func TestDRAMPenaltyWindow(t *testing.T) {
	inj := NewInjector(MustParse("dram@10+5:+100;dram@12+2:+300"), 16)
	for _, tc := range []struct {
		cycle int64
		want  int
	}{{9, 0}, {10, 100}, {12, 300}, {13, 300}, {14, 100}, {15, 0}} {
		inj.BeginCycle(tc.cycle)
		if got := inj.DRAMPenalty(); got != tc.want {
			t.Errorf("cycle %d: penalty = %d, want %d", tc.cycle, got, tc.want)
		}
	}
}

func TestRandomReplayable(t *testing.T) {
	o := RandomOptions{Horizon: 50_000, MaxStalls: 4, MaxFlaps: 3, MaxFreezes: 2, MaxDRAM: 2}
	a := Random(42, o).String()
	b := Random(42, o).String()
	if a != b {
		t.Fatalf("same seed produced different schedules:\n %q\n %q", a, b)
	}
	if c := Random(43, o).String(); c == a && a != "" {
		t.Fatalf("different seeds produced identical non-empty schedules")
	}
	// Generated schedules must round-trip like hand-written ones.
	re, err := Parse(a)
	if err != nil {
		t.Fatalf("Parse(generated): %v", err)
	}
	if re.String() != a {
		t.Fatalf("generated schedule is not canonical:\n %q\n %q", a, re.String())
	}
}

// TestDisabledPlaneIsInert pins the no-faults contract: a chip without an
// installed plane behaves identically to one with a nil-removed plane.
func TestDisabledPlaneIsInert(t *testing.T) {
	run := func(install bool) []raw.Word {
		chip := streamChip(t)
		if install {
			chip.InstallFaults(NewInjector(&Schedule{}, chip.NumTiles()))
			chip.InstallFaults(nil)
		}
		in := chip.StaticIn(0, raw.DirW)
		for w := 0; w < 6; w++ {
			in.Push(raw.Word(w))
		}
		chip.Run(20)
		words, _ := chip.StaticOut(0, raw.DirN).Drain()
		return words
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("nil-removed plane changed behavior: %v vs %v", a, b)
	}
}

// TestInjectorNextDue pins the fault plane's due-cycle contract, which
// macro windows rely on: each cycle a timed event is active is due (a
// flap over its whole span, healthy gaps included; a crash only at its
// start, since its frozen tile changes nothing afterwards), an
// earlier cycle is due at the event's Start, a cycle after every event
// ends is not, and a tap never makes the plane due: a drop tap counts
// pushes made between Run calls, and windows pass every popped word
// through CorruptPop.
func TestInjectorNextDue(t *testing.T) {
	cases := []struct {
		sched string
		at    []int64
		want  []int64
	}{
		{"link@100+50:t0.w", []int64{0, 99, 100, 120, 149, 150}, []int64{100, 100, 100, 120, 149, -1}},
		{"flap@100+10x3:t0.w", []int64{0, 100, 105, 110, 125, 139, 149, 150},
			[]int64{100, 100, 105, 110, 125, 139, 149, -1}},
		{"freeze@100+50:t3", []int64{0, 100, 149, 150}, []int64{100, 100, 149, -1}},
		{"crash@100:t3", []int64{0, 100, 101, 1 << 40}, []int64{100, 100, -1, -1}},
		{"dram@100+50:+30", []int64{0, 100, 149, 150}, []int64{100, 100, 149, -1}},
		{"link@100+50:t0.w;freeze@300+10:t2;link@120+5:t1.n", []int64{0, 126, 150, 305, 310},
			[]int64{100, 126, 300, 305, -1}},
		{"drop:t0.w.w0+5", []int64{0, 100}, []int64{-1, -1}},
		{"", []int64{0, 100}, []int64{-1, -1}},
	}
	for _, tc := range cases {
		inj := NewInjector(MustParse(tc.sched), 16)
		for i, at := range tc.at {
			if got := inj.NextDue(at); got != tc.want[i] {
				t.Errorf("%q: NextDue(%d) = %d, want %d", tc.sched, at, got, tc.want[i])
			}
		}
	}

	// A pending corrupt tap never makes the plane due: a macro window
	// passes every word it pops through CorruptPop, so the tap fires
	// inside the window exactly where a stepped cycle would fire it.
	inj := NewInjector(MustParse("corrupt:t0.w.w3.b5;link@100+50:t0.w"), 16)
	for pop := 0; pop < 4; pop++ {
		if got := inj.NextDue(7); got != 100 {
			t.Fatalf("after %d pops: NextDue(7) = %d, want 100 (the link stall)", pop, got)
		}
		inj.CorruptPop(0, raw.DirN, 0, 0) // another link: counts nothing here
		want := raw.Word(0)
		if pop == 3 {
			want = 1 << 5
		}
		if got := inj.CorruptPop(0, raw.DirW, 0, 0); got != want {
			t.Fatalf("pop %d on the tapped link = %#x, want %#x", pop, got, want)
		}
	}
	if got := inj.NextDue(7); got != 100 {
		t.Fatalf("tap consumed: NextDue(7) = %d, want 100", got)
	}
}
