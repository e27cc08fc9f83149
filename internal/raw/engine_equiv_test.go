// Equivalence tests for the compiled fast engine: a chip stepped under
// raw.EngineFast must be bit-for-bit identical to the reference
// interpreter — same edge words with the same cycle stamps, same switch
// and processor counters, same per-cycle trace — across message-passing
// workloads, streaming steady states (where the macro-step engages),
// reconfiguration, checkpoint/restore, and engine switches mid-run.
//
// Three seeded chip workloads exercise the dynamic networks (uniform and
// hotspot message traffic plus cache misses through the memory network)
// and both static networks (multicast fanout from an edge input); the
// full observable state — tile state counts, switch counters, cache
// counters, firmware digests, edge outputs with timestamps, and the
// per-cycle trace — is diffed between the engines.
package raw_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/raw"
	"repro/internal/raw/asm"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// workloadRun is one constructed chip plus the test-visible state its
// firmware accumulates.
type workloadRun struct {
	chip   *raw.Chip
	rec    *trace.Recorder
	digest []raw.Word
	// drive, if set, pushes edge input words; called every driveStep
	// cycles so external pushes interleave with the run deterministically.
	drive func(cycle int64)
}

const driveStep = 50

func (r *workloadRun) run(cycles int64) {
	for c := int64(0); c < cycles; c += driveStep {
		if r.drive != nil {
			r.drive(c)
		}
		r.chip.Run(driveStep)
	}
}

// fingerprint renders every observable outcome of a run as text, so two
// runs can be diffed line by line.
func fingerprint(r *workloadRun) string {
	var b strings.Builder
	chip := r.chip
	fmt.Fprintf(&b, "cycle=%d\n", chip.Cycle())
	for i := 0; i < chip.NumTiles(); i++ {
		t := chip.Tile(i)
		hits, misses := t.CacheStats()
		fmt.Fprintf(&b, "tile%d states=%v cache=%d/%d digest=%d retired... ", i, t.Exec().StateCounts(), hits, misses, r.digest[i])
		for net := 0; net < raw.NumStaticNets; net++ {
			sw := t.SwitchOn(net)
			fmt.Fprintf(&b, " sw%d=moves:%d,stalls:%d,pc:%d,halted:%v", net, sw.Moves(), sw.Stalls(), sw.PC(), sw.Halted())
		}
		b.WriteByte('\n')
	}
	for i := 0; i < chip.NumTiles(); i++ {
		for _, d := range []raw.Dir{raw.DirN, raw.DirE, raw.DirS, raw.DirW} {
			if !chip.Tile(i).Boundary(d) {
				continue
			}
			for net := 0; net < raw.NumStaticNets; net++ {
				words, at := chip.StaticOutOn(net, i, d).Drain()
				if len(words) == 0 {
					continue
				}
				fmt.Fprintf(&b, "edge tile%d %s net%d: %v @ %v\n", i, d, net, words, at)
			}
		}
	}
	if r.rec != nil {
		tiles := make([]int, chip.NumTiles())
		for i := range tiles {
			tiles[i] = i
		}
		b.WriteString(r.rec.CSV(tiles))
	}
	return b.String()
}

// firstDiff locates the first line where two fingerprints diverge.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(w), len(g))
}

// tracedChip builds a 4x4 chip with a recorder attached for the window
// [0, cycles).
func tracedChip(cycles int64) (*raw.Chip, *trace.Recorder) {
	rec := trace.NewRecorder(16, 0, cycles)
	cfg := raw.DefaultConfig()
	cfg.Tracer = rec
	return raw.NewChip(cfg), rec
}

// buildUniform: even tiles stream seeded 4-word messages to seeded odd
// destinations on the general dynamic network and do seeded cache
// writes/reads (driving the memory network to DRAM); odd tiles digest the
// messages and issue their own cache reads.
func buildUniform(cycles int64) *workloadRun {
	chip, rec := tracedChip(cycles)
	mem.Attach(chip, 20)
	r := &workloadRun{chip: chip, rec: rec, digest: make([]raw.Word, 16)}
	for id := 0; id < 16; id++ {
		id := id
		exec := chip.Tile(id).Exec()
		var got raw.Word
		if id%2 == 0 {
			rng := traffic.NewRNG(0xA11CE0 + uint64(id))
			exec.SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, s raw.Step) {
				if s == doneStep {
					r.digest[id] += got
					return
				}
				dst := 2*rng.Intn(8) + 1 // some odd tile
				msg := []raw.Word{raw.DynHeaderTag(dst%4, dst/4, 3, raw.Word(id))}
				for k := 0; k < 3; k++ {
					msg = append(msg, raw.Word(rng.Uint64()))
				}
				e.DynSend(raw.DynGeneral, msg)
				e.Compute(1 + rng.Intn(3))
				addr := raw.Word(rng.Intn(1 << 10))
				val := raw.Word(rng.Uint64())
				e.CacheWrite(addr, val)
				e.CacheRead(addr, &got)
				e.OnDone(doneStep)
			}))
		} else {
			rng := traffic.NewRNG(0xB0B0 + uint64(id))
			ws := make([]raw.Word, 4)
			exec.SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, s raw.Step) {
				switch s {
				case raw.Refill:
					e.DynRecv(raw.DynGeneral, ws)
					e.OnDone(1)
					addr := raw.Word(rng.Intn(1 << 10))
					e.CacheRead(addr, &got)
					e.OnDone(2)
				case 1:
					for _, w := range ws {
						r.digest[id] = r.digest[id]*31 + w
					}
				case 2:
					r.digest[id] ^= got
				}
			}))
		}
	}
	return r
}

// buildHotspot: every tile but 0 floods seeded messages at tile 0,
// contending for its router ports and receive queue; tile 0 digests as
// fast as it can.
func buildHotspot(cycles int64) *workloadRun {
	chip, rec := tracedChip(cycles)
	mem.Attach(chip, 20)
	r := &workloadRun{chip: chip, rec: rec, digest: make([]raw.Word, 16)}
	ws := make([]raw.Word, 4)
	chip.Tile(0).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, s raw.Step) {
		if s == doneStep {
			for _, w := range ws {
				r.digest[0] = r.digest[0]*31 + w
			}
			return
		}
		e.DynRecv(raw.DynGeneral, ws)
		e.OnDone(doneStep)
	}))
	for id := 1; id < 16; id++ {
		id := id
		rng := traffic.NewRNG(0x50707 + uint64(id))
		chip.Tile(id).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, _ raw.Step) {
			msg := []raw.Word{raw.DynHeaderTag(0, 0, 3, raw.Word(id))}
			for k := 0; k < 3; k++ {
				msg = append(msg, raw.Word(rng.Uint64()))
			}
			e.DynSend(raw.DynGeneral, msg)
			e.Compute(1 + rng.Intn(4))
			addr := raw.Word(rng.Intn(1 << 9))
			val := raw.Word(rng.Uint64())
			e.CacheWrite(addr, val)
		}))
	}
	return r
}

// buildMulticast: rows of static switches fan every word from the West
// edge input out to both the local processor and the East neighbor — the
// fanout-splitting idiom of §8.6 — on both static networks at once
// (row 0 on network 0, row 1 on network 1). Words are pushed at the edge
// in seeded bursts during the run; the last tile of each row forwards to
// its East edge sink, whose drained words and timestamps enter the
// fingerprint.
func buildMulticast(cycles int64) *workloadRun {
	chip, rec := tracedChip(cycles)
	r := &workloadRun{chip: chip, rec: rec, digest: make([]raw.Word, 16)}
	fanout := asm.MustAssembleSwitch("L: jump L with $cWi->$csti, $cWi->$cEo")
	for x := 0; x < 4; x++ {
		if err := chip.Tile(x).SetSwitchProgramOn(0, fanout); err != nil {
			panic(err)
		}
		if err := chip.Tile(4+x).SetSwitchProgramOn(1, fanout); err != nil {
			panic(err)
		}
		id0, id1 := x, 4+x
		var w0, w1 raw.Word
		chip.Tile(id0).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, s raw.Step) {
			if s == doneStep {
				r.digest[id0] = r.digest[id0]*31 + w0
				return
			}
			e.RecvOn(0, &w0)
			e.OnDone(doneStep)
		}))
		chip.Tile(id1).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, s raw.Step) {
			if s == doneStep {
				r.digest[id1] = r.digest[id1]*31 + w1
				return
			}
			e.RecvOn(1, &w1)
			e.OnDone(doneStep)
		}))
	}
	rngA := traffic.NewRNG(0xFA17)
	rngB := traffic.NewRNG(0xFA18)
	in0 := chip.StaticInOn(0, 0, raw.DirW)
	in1 := chip.StaticInOn(1, 4, raw.DirW)
	r.drive = func(cycle int64) {
		if cycle >= cycles-500 {
			return // stop feeding so the pipelines drain before the diff
		}
		for k := 0; k < 8; k++ {
			in0.Push(raw.Word(rngA.Uint64()))
			in1.Push(raw.Word(rngB.Uint64()))
		}
	}
	return r
}

// runEngine rebuilds a workload and runs it to completion under the
// given engine, returning the run.
func runEngine(build func(int64) *workloadRun, cycles int64, eng raw.Engine) *workloadRun {
	r := build(cycles)
	r.chip.SetEngine(eng)
	r.run(cycles)
	return r
}

// TestFastEngineMatchesReference diffs the full observable outcome of
// the three seeded chip workloads (dynamic traffic, cache misses through
// the memory network, static multicast) between the engines.
func TestFastEngineMatchesReference(t *testing.T) {
	const cycles = 3000
	workloads := []struct {
		name  string
		build func(cycles int64) *workloadRun
	}{
		{"uniform", buildUniform},
		{"hotspot", buildHotspot},
		{"multicast", buildMulticast},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			ref := runEngine(wl.build, cycles, raw.EngineRef)
			var progress raw.Word
			for _, d := range ref.digest {
				progress |= d
			}
			if progress == 0 {
				t.Fatalf("workload %s moved no data; the equivalence check would be vacuous", wl.name)
			}
			want := fingerprint(ref)
			if got := fingerprint(runEngine(wl.build, cycles, raw.EngineFast)); got != want {
				t.Fatalf("fast engine diverged from reference\n%s", firstDiff(want, got))
			}
		})
	}
}

// TestEngineSwitchMidRun alternates engines every 100 cycles; the result
// must match a pure reference run, proving the engines share all
// simulated state with identical transition functions.
func TestEngineSwitchMidRun(t *testing.T) {
	const cycles = 2000
	want := fingerprint(runEngine(buildUniform, cycles, raw.EngineRef))
	r := buildUniform(cycles)
	eng := raw.EngineRef
	for c := int64(0); c < cycles; c += driveStep {
		if r.drive != nil {
			r.drive(c)
		}
		if c%100 == 0 {
			if eng == raw.EngineRef {
				eng = raw.EngineFast
			} else {
				eng = raw.EngineRef
			}
			r.chip.SetEngine(eng)
		}
		r.chip.Run(driveStep)
	}
	if got := fingerprint(r); got != want {
		t.Fatalf("mid-run engine switching diverged from reference\n%s", firstDiff(want, got))
	}
}

// streamChip programs a macro-friendly streaming workload of
// one-instruction SwJump self-loops (the macro-step's target regime):
// row 0 forwards W->E to the east edge, row 1 multicasts each west-edge
// word both E and S (fanout inside the window), and row 2 turns the
// southbound copies straight out the south edge with N->S. Every
// produced word is consumed, so once the pipeline fills, no switch
// stalls and the whole chip is macro-eligible. Row 3 stays unprogrammed
// and halts on its first cycle.
func streamChip(eng raw.Engine) *raw.Chip {
	cfg := raw.DefaultConfig()
	cfg.Engine = eng
	chip := raw.NewChip(cfg)
	for x := 0; x < 4; x++ {
		progs := [][]raw.Route{
			{{Dst: raw.DirE, Src: raw.DirW}},
			{{Dst: raw.DirE, Src: raw.DirW}, {Dst: raw.DirS, Src: raw.DirW}},
			{{Dst: raw.DirS, Src: raw.DirN}},
		}
		for y, routes := range progs {
			if err := chip.TileAt(x, y).SetSwitchProgram(routeAll(routes...)); err != nil {
				panic(err)
			}
		}
	}
	return chip
}

func streamFingerprint(chip *raw.Chip) string {
	r := &workloadRun{chip: chip, digest: make([]raw.Word, chip.NumTiles())}
	return fingerprint(r)
}

// TestFastEngineStreamingSteadyState runs the streaming workload with a
// deep edge backlog — the regime where the macro-step advances thousands
// of cycles per dispatch — in several Run slices with fresh backlog
// between slices, and requires the full fingerprint (edge words, exit
// cycles, stall/move counters) to match single-cycle reference stepping.
func TestFastEngineStreamingSteadyState(t *testing.T) {
	run := func(eng raw.Engine) string {
		chip := streamChip(eng)
		w := raw.Word(1)
		for slice := 0; slice < 4; slice++ {
			for y := 0; y < 3; y++ {
				in := chip.StaticIn(chip.TileAt(0, y).ID(), raw.DirW)
				for i := 0; i < 700; i++ {
					in.Push(w)
					w++
				}
			}
			chip.Run(1500)
		}
		chip.Run(5000) // drain, then idle: the whole chip goes quiescent
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("streaming steady state diverged\n%s", firstDiff(want, got))
	}
	if !strings.Contains(want, "edge") {
		t.Fatal("workload produced no edge output; test is vacuous")
	}
}

// TestFastEngineBlockedFirmwareWindows: live firmware whose processor
// is blocked at its current micro-op must not close macro windows. Tile
// (1,3)'s firmware enqueues one Recv that its halted switch never
// satisfies, so the processor stalls forever without refilling; the
// fast engine must still macro-step the streaming rows and match the
// reference interpreter.
func TestFastEngineBlockedFirmwareWindows(t *testing.T) {
	run := func(eng raw.Engine) (*raw.Chip, string) {
		chip := streamChip(eng)
		chip.TileAt(1, 3).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec, _ raw.Step) {
			e.Recv(nil)
		}))
		for y := 0; y < 3; y++ {
			in := chip.StaticIn(chip.TileAt(0, y).ID(), raw.DirW)
			for i := 0; i < 700; i++ {
				in.Push(raw.Word(i + 1))
			}
		}
		chip.Run(1500)
		return chip, streamFingerprint(chip)
	}
	_, want := run(raw.EngineRef)
	chip, got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("blocked firmware diverged\n%s", firstDiff(want, got))
	}
	if windows, _ := chip.MacroStats(); windows == 0 {
		t.Fatalf("no macro window opened with a blocked live firmware (disarms %v)", chip.MacroDisarms())
	}
}

// TestFastEngineStreamingRunSlicing: macro windows must not depend on
// how Run is sliced — 1×6000 cycles, 6000×1, and ragged slices must all
// land in the same state, and RunUntil (which may not macro-step, its
// predicate observes every cycle) must agree.
func TestFastEngineStreamingRunSlicing(t *testing.T) {
	build := func() *raw.Chip {
		chip := streamChip(raw.EngineFast)
		for y := 0; y < 3; y++ {
			in := chip.StaticIn(chip.TileAt(0, y).ID(), raw.DirW)
			for i := 0; i < 2000; i++ {
				in.Push(raw.Word(1000 + i))
			}
		}
		return chip
	}
	ref := build()
	ref.SetEngine(raw.EngineRef)
	ref.Run(6000)
	want := streamFingerprint(ref)

	one := build()
	one.Run(6000)
	if got := streamFingerprint(one); got != want {
		t.Fatalf("single Run(6000) diverged\n%s", firstDiff(want, got))
	}
	single := build()
	for i := 0; i < 6000; i++ {
		single.Run(1)
	}
	if got := streamFingerprint(single); got != want {
		t.Fatalf("6000x Run(1) diverged\n%s", firstDiff(want, got))
	}
	ragged := build()
	for _, n := range []int64{1, 7, 93, 899, 1500, 2500, 1000} {
		ragged.Run(n)
	}
	if got := streamFingerprint(ragged); got != want {
		t.Fatalf("ragged Run slices diverged\n%s", firstDiff(want, got))
	}
	until := build()
	cells := 0
	until.RunUntil(func() bool { cells++; return false }, 6000)
	if got := streamFingerprint(until); got != want {
		t.Fatalf("RunUntil diverged\n%s", firstDiff(want, got))
	}
	// pred runs before each of the 6000 steps plus once after the budget.
	if cells != 6001 {
		t.Fatalf("RunUntil predicate ran %d times, want 6001 (must observe every cycle)", cells)
	}
}

// TestFastEngineBackpressure pipes a row into a tile whose switch halted
// on cycle one (unprogrammed): upstream queues fill, every switch in the
// row stalls, and the macro-step must keep refusing the window while the
// fast per-cycle path reproduces the reference stall accounting exactly.
func TestFastEngineBackpressure(t *testing.T) {
	run := func(eng raw.Engine) string {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		for x := 0; x < 3; x++ { // tile (3,0) left unprogrammed: halts, never pops
			if err := chip.TileAt(x, 0).SetSwitchProgram(
				routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW})); err != nil {
				panic(err)
			}
		}
		in := chip.StaticIn(0, raw.DirW)
		for i := 0; i < 300; i++ {
			in.Push(raw.Word(i * 5))
		}
		chip.Run(2000)
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("backpressured pipeline diverged\n%s", firstDiff(want, got))
	}
}

// TestFastEngineCheckpointCrossRestore: a checkpoint written under one
// engine must restore under the other. RestoreSnapshot replays the input
// log through the restoring chip's own engine and verifies the state
// digest word for word, so a passing cross restore is itself a
// bit-for-bit equivalence proof; the continued runs must then agree too.
func TestFastEngineCheckpointCrossRestore(t *testing.T) {
	build := func(eng raw.Engine) *raw.Chip {
		chip := streamChip(eng)
		if err := chip.EnableRecording(); err != nil {
			t.Fatal(err)
		}
		return chip
	}
	for _, dir := range []struct {
		name     string
		from, to raw.Engine
	}{
		{"fast->ref", raw.EngineFast, raw.EngineRef},
		{"ref->fast", raw.EngineRef, raw.EngineFast},
	} {
		src := build(dir.from)
		for y := 0; y < 3; y++ {
			in := src.StaticIn(src.TileAt(0, y).ID(), raw.DirW)
			for i := 0; i < 900; i++ {
				in.Push(raw.Word(7 + i*3))
			}
		}
		src.Run(2500)
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", dir.name, err)
		}
		dst := build(dir.to)
		if err := dst.RestoreSnapshot(blob); err != nil {
			t.Fatalf("%s: cross-engine restore rejected: %v", dir.name, err)
		}
		if dst.Cycle() != src.Cycle() {
			t.Fatalf("%s: restored cycle %d, want %d", dir.name, dst.Cycle(), src.Cycle())
		}
		src.Run(2000)
		dst.Run(2000)
		want, got := streamFingerprint(src), streamFingerprint(dst)
		if got != want {
			t.Fatalf("%s: continuation diverged after cross-engine restore\n%s",
				dir.name, firstDiff(want, got))
		}
	}
}

// routeVChip programs tile 0 with a variable-count route W->N followed by
// a notify, loads count words into the count register via firmware, and
// feeds the west edge.
func routeVChip(eng raw.Engine, count raw.Word, feed int) (*raw.Chip, *bool) {
	cfg := raw.DefaultConfig()
	cfg.Engine = eng
	chip := raw.NewChip(cfg)
	if err := chip.Tile(0).SetSwitchProgram([]raw.SwInstr{
		{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}},
		{Op: raw.SwNotify, Arg: 1},
		{Op: raw.SwHalt},
	}); err != nil {
		panic(err)
	}
	done := new(bool)
	fw := &fwSteps{}
	fw.once = func(e *raw.Exec) {
		e.WriteSwitchCount(count)
		e.WaitSwitchDone(nil)
		fw.onDone(e, func() { *done = true })
	}
	chip.Tile(0).Exec().SetFirmware(fw)
	in := chip.StaticIn(0, raw.DirW)
	for i := 0; i < feed; i++ {
		in.Push(raw.Word(100 + i))
	}
	return chip, done
}

// TestSwitchRouteVZeroCountBothEngines: a zero in the count register must
// route nothing and fall straight through to the notify, identically on
// both engines.
func TestSwitchRouteVZeroCountBothEngines(t *testing.T) {
	for _, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		chip, done := routeVChip(eng, 0, 10)
		chip.Run(40)
		words, _ := chip.StaticOut(0, raw.DirN).Drain()
		if len(words) != 0 {
			t.Fatalf("%v: zero-count routev moved %d words, want 0", eng, len(words))
		}
		if !*done {
			t.Fatalf("%v: switch never notified after zero-count routev", eng)
		}
	}
}

// TestSwitchRouteVLargeCountBothEngines drives a count much larger than
// any queue capacity (every interior fifo wraps its ring repeatedly) and
// checks word-for-word, stamp-for-stamp agreement plus the exact moved
// count and stream position on both engines.
func TestSwitchRouteVLargeCountBothEngines(t *testing.T) {
	const n = 2500
	run := func(eng raw.Engine) ([]raw.Word, []int64, int64, int64, bool) {
		chip, done := routeVChip(eng, n, n+50)
		chip.Run(3 * n)
		words, at := chip.StaticOut(0, raw.DirN).Drain()
		return words, at, chip.Tile(0).Switch().Moves(), chip.StaticIn(0, raw.DirW).Consumed(), *done
	}
	rw, rat, rm, rc, rdone := run(raw.EngineRef)
	fw, fat, fm, fc, fdone := run(raw.EngineFast)
	if len(rw) != n || !rdone {
		t.Fatalf("reference moved %d words (done=%v), want %d", len(rw), rdone, n)
	}
	if len(fw) != len(rw) || fm != rm || fc != rc || fdone != rdone {
		t.Fatalf("fast engine: %d words, %d moves, %d consumed, done=%v; ref: %d, %d, %d, %v",
			len(fw), fm, fc, fdone, len(rw), rm, rc, rdone)
	}
	for i := range rw {
		if rw[i] != fw[i] || rat[i] != fat[i] {
			t.Fatalf("word %d: fast %d@%d, ref %d@%d", i, fw[i], fat[i], rw[i], rat[i])
		}
	}
}

// TestFastEngineRingWraparound hammers one bounded link with bursts sized
// around the fifo capacity so the ring's head/tail cross the compaction
// threshold at every phase relative to the burst, on both engines.
func TestFastEngineRingWraparound(t *testing.T) {
	run := func(eng raw.Engine) string {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		for x := 0; x < 4; x++ {
			if err := chip.TileAt(x, 0).SetSwitchProgram(
				routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW})); err != nil {
				panic(err)
			}
		}
		in := chip.StaticIn(0, raw.DirW)
		w := raw.Word(1)
		// Burst sizes sweep 1..13 across every alignment of the ring.
		for burst := 1; burst <= 13; burst++ {
			for rep := 0; rep < 7; rep++ {
				for i := 0; i < burst; i++ {
					in.Push(w)
					w++
				}
				chip.Run(int64(1 + (burst+rep)%5))
			}
		}
		chip.Run(800) // drain
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("ring wraparound diverged\n%s", firstDiff(want, got))
	}
}

// TestFastEngineReprogramMidRun exercises binding invalidation: after a
// streaming phase, tiles are reprogrammed (ResetStatic + new programs,
// including a pre-compiled install) and streamed again; both engines
// must agree across the reconfiguration.
func TestFastEngineReprogramMidRun(t *testing.T) {
	run := func(eng raw.Engine) string {
		chip := streamChip(eng)
		in := chip.StaticIn(0, raw.DirW)
		for i := 0; i < 500; i++ {
			in.Push(raw.Word(i))
		}
		chip.Run(1200)
		// Repurpose the fabric: row 0 turns west-edge words south and rows
		// 1-2 relay them N->S, so phase-two words exit the south edge
		// instead of the east one. Row 0 installs a pre-compiled program
		// (the router codegen path); row 1 goes through SetSwitchProgram.
		cpTurn := raw.MustCompileProgram(routeAll(raw.Route{Dst: raw.DirS, Src: raw.DirW}))
		for x := 0; x < 4; x++ {
			t0 := chip.TileAt(x, 0)
			t0.ResetStatic(0)
			t0.SetCompiledSwitchProgram(cpTurn)
			t1 := chip.TileAt(x, 1)
			t1.ResetStatic(0)
			if err := t1.SetSwitchProgram(routeAll(raw.Route{Dst: raw.DirS, Src: raw.DirN})); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 400; i++ {
			in.Push(raw.Word(10000 + i))
		}
		chip.Run(1500)
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("reprogramming mid-run diverged\n%s", firstDiff(want, got))
	}
}

// TestLongWindowRunMoves drives one macro window far longer than a run
// chunk through every kind of stream a window moves, on both engines.
// On network 0 a 1,000-word west-edge backlog (δ = −1) streams east
// along row 0 through δ = 0 links; tile (0,0) fans each word out to its
// north sink as well, and tile (2,0) down column 2 to the south sink. On
// network 1 a backlog streams west along row 0. Sinks take the appended
// runs (δ = +1): a capacity-2 link cannot, since it would bound the
// window below macroMinCycles. With corrupt taps the popped words pass
// the fault plane inside the window, on the edge link and on δ = 0
// links. Drained words and exit cycles must match the reference engine.
func TestLongWindowRunMoves(t *testing.T) {
	const backlog = 1000
	type sinkKey struct{ net, tile int }
	for _, taps := range []string{"", "corrupt:t0.w.w700.b5;corrupt:t1.w.w500.b3;corrupt:t6.n.w999.b0;corrupt:t2.e.w300.b7.n1"} {
		run := func(eng raw.Engine) (map[sinkKey]string, int64) {
			cfg := raw.DefaultConfig()
			cfg.Engine = eng
			chip := raw.NewChip(cfg)
			prog := func(x, y, net int, routes ...raw.Route) {
				if err := chip.TileAt(x, y).SetSwitchProgramOn(net, routeAll(routes...)); err != nil {
					t.Fatal(err)
				}
			}
			prog(0, 0, 0, raw.Route{Dst: raw.DirE, Src: raw.DirW}, raw.Route{Dst: raw.DirN, Src: raw.DirW})
			prog(1, 0, 0, raw.Route{Dst: raw.DirE, Src: raw.DirW})
			prog(2, 0, 0, raw.Route{Dst: raw.DirE, Src: raw.DirW}, raw.Route{Dst: raw.DirS, Src: raw.DirW})
			prog(3, 0, 0, raw.Route{Dst: raw.DirE, Src: raw.DirW})
			for y := 1; y < 4; y++ {
				prog(2, y, 0, raw.Route{Dst: raw.DirS, Src: raw.DirN})
			}
			for x := 0; x < 4; x++ {
				prog(x, 0, 1, raw.Route{Dst: raw.DirW, Src: raw.DirE})
			}
			if taps != "" {
				chip.InstallFaults(fault.NewInjector(fault.MustParse(taps), chip.NumTiles()))
			}
			for i := 0; i < backlog; i++ {
				chip.StaticIn(0, raw.DirW).Push(raw.Word(i))
				chip.StaticInOn(1, 3, raw.DirE).Push(raw.Word(1 << 20 * i))
			}
			chip.Run(2 * backlog)
			out := map[sinkKey]string{}
			for _, s := range []struct {
				net, tile int
				d         raw.Dir
			}{{0, 0, raw.DirN}, {0, 3, raw.DirE}, {0, chip.TileAt(2, 3).ID(), raw.DirS}, {1, 0, raw.DirW}} {
				words, at := chip.StaticOutOn(s.net, s.tile, s.d).Drain()
				if len(words) != backlog {
					t.Fatalf("%v: net %d tile %d %v sank %d words, want %d", eng, s.net, s.tile, s.d, len(words), backlog)
				}
				out[sinkKey{s.net, s.tile}] = fmt.Sprint(words, at)
			}
			_, cycles := chip.MacroStats()
			return out, cycles
		}
		want, _ := run(raw.EngineRef)
		got, cycles := run(raw.EngineFast)
		if cycles < backlog-20 {
			t.Errorf("taps %q: macro windows covered %d cycles, want one window of nearly %d", taps, cycles, backlog)
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("taps %q: sink %+v diverged\nref:  %.300s\nfast: %.300s", taps, k, w, got[k])
			}
		}
	}
}
