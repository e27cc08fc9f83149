// In-package engine tests: digest-level equivalence over randomly
// generated switch programs, the Engine knob itself, and the micro-op
// layout.
package raw

import (
	"reflect"
	"testing"
)

// TestMicroOpIsData: a queued micro-op is plain data, so a tile's batch
// can be serialized with the rest of its state. No field of microOp, nor
// anything a field points to, may be func-typed.
func TestMicroOpIsData(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Func, reflect.Interface, reflect.Chan:
			t.Errorf("%s is %v: a micro-op must hold data only", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("microOp", reflect.TypeOf(microOp{}))
}

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineRef, true},
		{"ref", EngineRef, true},
		{"fast", EngineFast, true},
		{"Fast", 0, false},
		{"turbo", 0, false},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseEngine(%q) accepted, want error", c.in)
		}
	}
	if EngineRef.String() != "ref" || EngineFast.String() != "fast" {
		t.Fatalf("Engine.String: got %q/%q", EngineRef.String(), EngineFast.String())
	}
	if Engine(9).String() == "ref" {
		t.Fatal("out-of-range engine must not stringify as a valid name")
	}
}

func TestCompileProgramRejectsInvalid(t *testing.T) {
	bad := []SwInstr{{Op: SwJump, Arg: 99}}
	if _, err := CompileProgram(bad); err == nil {
		t.Fatal("CompileProgram accepted an out-of-range jump target")
	}
	cp, err := CompileProgram([]SwInstr{
		{Op: SwRoute, Routes: []Route{{Dst: DirE, Src: DirW}}},
		{Op: SwJump, Arg: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 2 || len(cp.Instrs()) != 2 {
		t.Fatalf("compiled length = %d/%d, want 2", cp.Len(), len(cp.Instrs()))
	}
}

// TestMacroStepEngages guards the fast engine's headline optimization
// against silent regression: on a pure streaming row with a deep edge
// backlog, the macro-step must cover the bulk of the run in a handful of
// multi-cycle windows, not fall back to single-cycle stepping.
func TestMacroStepEngages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineFast
	chip := NewChip(cfg)
	for x := 0; x < 4; x++ {
		if err := chip.TileAt(x, 0).SetSwitchProgram(
			[]SwInstr{{Op: SwJump, Arg: 0, Routes: []Route{{Dst: DirE, Src: DirW}}}}); err != nil {
			t.Fatal(err)
		}
	}
	in := chip.StaticIn(0, DirW)
	for i := 0; i < 5000; i++ {
		in.Push(Word(i))
	}
	chip.Run(6000)
	windows, cycles := chip.MacroStats()
	if windows == 0 {
		t.Fatal("macro-step never engaged on a pure streaming workload")
	}
	if cycles < 4000 {
		t.Fatalf("macro-step covered only %d of 6000 cycles (%d windows); want most of the run",
			cycles, windows)
	}
	if got, _ := chip.StaticOut(chip.TileAt(3, 0).ID(), DirE).Drain(); len(got) != 5000 {
		t.Fatalf("streamed %d words, want 5000", len(got))
	}
}

// TestRandomProgramsDigestEquivalence reruns the random-switch-program
// generator (same xorshift stream as TestRandomSwitchProgramsNoPanic,
// different seed) under both engines and compares the full state digest
// — the same FNV-64a fold the checkpoint verifier trusts — after every
// few hundred cycles. Random programs hit route fanout, SwRouteN loop
// counts, jump tables, boundary drops, and deadlocked tiles; the digest
// covers every committed queue word, so any divergence in any queue,
// counter, or switch register fails the test.
func TestRandomProgramsDigestEquivalence(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(777 + 31*trial)
		next := func(n int) int {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return int(seed % uint64(n))
		}
		build := func(gen func(int) int, eng Engine) *Chip {
			cfg := DefaultConfig()
			cfg.Engine = eng
			chip := NewChip(cfg)
			for tile := 0; tile < 16; tile++ {
				n := 1 + gen(6)
				prog := make([]SwInstr, 0, n+1)
				for k := 0; k < n; k++ {
					var routes []Route
					var used [5]bool
					for rts := gen(3); rts >= 0; rts-- {
						d := Dir(gen(5))
						if used[d] {
							continue
						}
						used[d] = true
						routes = append(routes, Route{Dst: d, Src: Dir(gen(5))})
					}
					switch gen(3) {
					case 0:
						prog = append(prog, SwInstr{Op: SwRoute, Routes: routes})
					case 1:
						prog = append(prog, SwInstr{Op: SwRouteN, Arg: Word(1 + gen(8)), Routes: routes})
					default:
						prog = append(prog, SwInstr{Op: SwJump, Arg: Word(gen(k + 1)), Routes: routes})
					}
				}
				prog = append(prog, SwInstr{Op: SwJump, Arg: 0})
				if err := chip.Tile(tile).SetSwitchProgram(prog); err != nil {
					t.Fatalf("generated invalid program: %v", err)
				}
			}
			for tile := 0; tile < 16; tile++ {
				for _, d := range []Dir{DirN, DirE, DirS, DirW} {
					if chip.Tile(tile).Boundary(d) {
						in := chip.StaticIn(tile, d)
						for i := 0; i < 16; i++ {
							in.Push(Word(trial*1000 + i))
						}
					}
				}
			}
			return chip
		}
		// Both chips must see the identical generator stream: snapshot the
		// seed, build ref, rewind, build fast.
		s0 := seed
		ref := build(next, EngineRef)
		seed = s0
		fast := build(next, EngineFast)
		for step := 0; step < 4; step++ {
			ref.Run(250)
			fast.Run(250)
			if dr, df := ref.digest(), fast.digest(); dr != df {
				t.Fatalf("trial %d after %d cycles: digests diverged %#x != %#x",
					trial, (step+1)*250, dr, df)
			}
		}
	}
}
