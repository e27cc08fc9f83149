package raw

import (
	"errors"
	"fmt"
	"strings"
)

// Route moves the head word of the Src port to the Dst port. Within one
// switch instruction a single source may feed several destinations (the
// crossbar replicates the word; this is what makes fanout-splitting
// multicast cheap, §8.6 of the paper), but a destination may appear only
// once.
type Route struct {
	Dst Dir
	Src Dir
}

// String renders the route in the thesis's `$cWi->$csti` spirit, shortened
// to `W->P`.
func (r Route) String() string { return r.Src.String() + "->" + r.Dst.String() }

// SwOp is a static switch instruction opcode.
type SwOp uint8

const (
	// SwRoute performs its routes once and advances.
	SwRoute SwOp = iota
	// SwRouteN performs its routes Arg times (a hardware-loop compaction
	// of the unrolled route sequence the thesis describes), then advances.
	SwRouteN
	// SwRouteV performs its routes K times where K is first read,
	// blocking, from the processor's count register. It models the
	// software-pipelined variable-length body loops of §6.5.
	SwRouteV
	// SwJump performs its routes (if any) and sets pc to Arg, atomically,
	// in one cycle — the Raw switch word has independent route and branch
	// components, which is what lets a one-instruction loop stream one
	// word per cycle.
	SwJump
	// SwRecvPC blocks until the tile processor writes the switch program
	// counter, then jumps there. This is the dispatch point of the
	// configuration jump table (§6.5: the tile processor "loads the
	// address of the configuration into the program counter of the switch
	// processor").
	SwRecvPC
	// SwNotify sends Arg to the processor's switch-done register,
	// blocking: the "confirmation from the switch processor stating that
	// the routing is finished" (§6.5).
	SwNotify
	// SwHalt stops the switch processor.
	SwHalt
)

// SwInstr is one static switch instruction. The switch executes at most one
// instruction per cycle; a route-type instruction fires only when every
// source has a word and every destination has space, otherwise the switch
// stalls without side effects (the Raw static network "is flow-controlled
// and stalls when data is not available", §3.3).
type SwInstr struct {
	Op     SwOp
	Arg    Word
	Routes []Route
}

// String renders the instruction in assembly-like form.
func (i SwInstr) String() string {
	var b strings.Builder
	switch i.Op {
	case SwRoute:
		b.WriteString("route")
	case SwRouteN:
		fmt.Fprintf(&b, "routen %d", i.Arg)
	case SwRouteV:
		b.WriteString("routev")
	case SwJump:
		if len(i.Routes) == 0 {
			return fmt.Sprintf("jump %d", i.Arg)
		}
		fmt.Fprintf(&b, "jump %d with", i.Arg)
	case SwRecvPC:
		return "recvpc"
	case SwNotify:
		return fmt.Sprintf("notify %d", i.Arg)
	case SwHalt:
		return "halt"
	}
	for k, r := range i.Routes {
		if k == 0 {
			b.WriteString(" ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// ValidateProgram checks static-switch program invariants: destination
// uniqueness within an instruction, jump targets in range, and the 8,192
// word switch memory budget (each SwInstr counts as one switch memory
// word; SwRouteN/SwRouteV are hardware-loop compactions whose unrolled
// footprint is accounted separately by the scheduler).
func ValidateProgram(prog []SwInstr) error {
	if len(prog) > SwMemWords {
		return fmt.Errorf("raw: switch program has %d instructions, exceeds %d-word switch memory", len(prog), SwMemWords)
	}
	for pc, in := range prog {
		switch in.Op {
		case SwRoute, SwRouteN, SwRouteV, SwJump:
			var seen [numDirs]bool
			for _, r := range in.Routes {
				if r.Dst >= numDirs || r.Src >= numDirs {
					return fmt.Errorf("raw: pc %d: bad direction in route %s", pc, r)
				}
				if seen[r.Dst] {
					return fmt.Errorf("raw: pc %d: destination %s driven twice", pc, r.Dst)
				}
				seen[r.Dst] = true
			}
			if in.Op == SwRouteN && in.Arg == 0 {
				return fmt.Errorf("raw: pc %d: routen with zero count", pc)
			}
			if in.Op == SwJump && int(in.Arg) >= len(prog) {
				return fmt.Errorf("raw: pc %d: jump target %d out of range", pc, in.Arg)
			}
		case SwRecvPC, SwNotify, SwHalt:
		default:
			return fmt.Errorf("raw: pc %d: unknown opcode %d", pc, in.Op)
		}
	}
	return nil
}

// errHalted marks a switch that ran off its program.
var errHalted = errors.New("raw: switch halted")

// swState is the per-tile static switch processor.
type swState struct {
	tile *Tile
	net  int
	prog []SwInstr
	// comp is the fast engine's flattened form of prog, kept in lockstep
	// by SetProgram/setCompiled. The reference interpreter never reads it.
	comp *CompiledProgram
	pc   int

	// remaining counts the outstanding iterations of an in-progress
	// SwRouteN/SwRouteV. A value of -1 means the count has not yet been
	// loaded (SwRouteV before its register read).
	remaining int
	loaded    bool

	halted bool

	// stalls counts cycles the switch wanted to route but could not.
	stalls int64
	// moves counts words moved through the crossbar.
	moves int64

	// Per-cycle activity flags for the combined tile trace (Figure 7-3
	// counts a tile busy when either its processor or its switch works).
	movedNow   bool
	stalledNow bool
}

// SetProgram installs (and validates) a switch program and resets the pc.
// The program is compiled for the fast engine as a side effect; the cost
// is one pass over the instructions at install time.
func (s *swState) SetProgram(prog []SwInstr) error {
	cp, err := CompileProgram(prog)
	if err != nil {
		return err
	}
	s.setCompiled(cp)
	return nil
}

// setCompiled installs an already-compiled program, resetting the pc.
// Loop state and halt are cleared; the stall/move counters survive, as
// they do across SetProgram (reprogramming is not a statistics reset).
func (s *swState) setCompiled(cp *CompiledProgram) {
	if s.tile != nil {
		s.tile.chip.invalidateFast()
	}
	s.prog = cp.instrs
	s.comp = cp
	s.pc = 0
	s.loaded = false
	s.halted = false
}

// step executes at most one switch instruction. All queue decisions use
// start-of-cycle snapshots (see fifo), so step order across tiles is
// irrelevant.
func (s *swState) step() {
	s.movedNow = false
	s.stalledNow = false
	if s.halted || s.pc >= len(s.prog) {
		s.halted = true
		return
	}
	stallsBefore, movesBefore := s.stalls, s.moves
	defer func() {
		s.movedNow = s.moves > movesBefore
		s.stalledNow = s.stalls > stallsBefore
	}()
	in := &s.prog[s.pc]
	switch in.Op {
	case SwHalt:
		s.halted = true
	case SwJump:
		if s.fire(in.Routes) {
			s.pc = int(in.Arg)
		} else {
			s.stalls++
		}
	case SwRecvPC:
		if s.tile.st[s.net].swPC.CanPop() {
			s.pc = int(s.tile.st[s.net].swPC.Pop())
		} else {
			s.stalls++
		}
	case SwNotify:
		if s.tile.st[s.net].swDone.CanPush() {
			s.tile.st[s.net].swDone.Push(in.Arg)
			s.pc++
		} else {
			s.stalls++
		}
	case SwRoute:
		if s.fire(in.Routes) {
			s.pc++
		} else {
			s.stalls++
		}
	case SwRouteN:
		if !s.loaded {
			s.remaining = int(in.Arg)
			s.loaded = true
		}
		s.stepLoop(in)
	case SwRouteV:
		if !s.loaded {
			if !s.tile.st[s.net].swCount.CanPop() {
				s.stalls++
				return
			}
			s.remaining = int(s.tile.st[s.net].swCount.Pop())
			s.loaded = true
			return // loading the count register takes the cycle
		}
		s.stepLoop(in)
	}
}

func (s *swState) stepLoop(in *SwInstr) {
	if s.remaining <= 0 {
		s.pc++
		s.loaded = false
		return
	}
	if s.fire(in.Routes) {
		s.remaining--
		if s.remaining == 0 {
			s.pc++
			s.loaded = false
		}
	} else {
		s.stalls++
	}
}

// fire attempts to perform all routes atomically. It returns false (and
// moves nothing) unless every source has a word and every destination has
// space this cycle.
func (s *swState) fire(routes []Route) bool {
	for _, r := range routes {
		if !s.tile.staticSrcReady(s.net, r.Src) || !s.tile.staticDstReady(s.net, r.Dst) {
			return false
		}
	}
	// A single source may feed several destinations; pop each distinct
	// source once and fan the word out.
	var val [numDirs]Word
	var have [numDirs]bool
	for _, r := range routes {
		if !have[r.Src] {
			val[r.Src] = s.tile.staticPop(s.net, r.Src)
			have[r.Src] = true
		}
	}
	for _, r := range routes {
		s.tile.staticPush(s.net, r.Dst, val[r.Src])
		s.moves++
	}
	return true
}

// Stalls returns the number of cycles the switch spent blocked on flow
// control.
func (s *swState) Stalls() int64 {
	s.tile.chip.settle()
	return s.stalls
}

// Moves returns the number of words moved through the static crossbar.
func (s *swState) Moves() int64 { return s.moves }

// PC returns the switch program counter (debugging and tests).
func (s *swState) PC() int { return s.pc }

// Halted reports whether the switch has stopped.
func (s *swState) Halted() bool { return s.halted }
