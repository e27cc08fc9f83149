package fault

import (
	"repro/internal/raw"
)

// linkKey names one static input queue: the reading tile, the direction
// the words arrive from, and the static network.
type linkKey struct {
	tile int
	dir  raw.Dir
	net  int
}

// popTap holds the corruption taps on one link plus the link's cumulative
// pop counter. Each link has exactly one popping tile, so count has a
// single writer.
type popTap struct {
	count int64
	taps  []Event // KindCorrupt, ordered by WordIdx
	next  int
}

// pushTap holds the drop windows on one edge port plus its cumulative
// push counter. Edge pushes happen between cycles on the testbench side,
// so count is single-threaded.
type pushTap struct {
	count int64
	taps  []Event // KindDrop, ordered by WordIdx
	next  int
}

// Injector compiles a Schedule into the raw.FaultPlane hooks. Per-cycle
// state (frozen tiles, stalled links, DRAM penalty) is recomputed in
// BeginCycle and only read during the cycle, so the injector is
// deterministic.
type Injector struct {
	numTiles int
	timed    []Event // link/flap/freeze/crash/dram, sorted by Start

	frozen  []bool
	stalled map[linkKey]bool
	penalty int

	pops   map[linkKey]*popTap
	pushes map[linkKey]*pushTap
}

var _ raw.FaultPlane = (*Injector)(nil)

// NewInjector compiles a schedule for a chip with numTiles tiles. Events
// naming tiles outside the chip are ignored (the schedule encoding allows
// larger meshes than the one under test).
func NewInjector(s *Schedule, numTiles int) *Injector {
	inj := &Injector{
		numTiles: numTiles,
		frozen:   make([]bool, numTiles),
		stalled:  make(map[linkKey]bool),
		pops:     make(map[linkKey]*popTap),
		pushes:   make(map[linkKey]*pushTap),
	}
	var timed []Event
	for _, e := range s.Events {
		if e.Tile >= numTiles && e.Kind != KindDRAM {
			continue
		}
		switch e.Kind {
		case KindRestore, KindReprobe, KindKillChip, KindRestoreChip,
			KindKillTrunk, KindRestoreTrunk:
			// Recovery and fabric controls target the router or cluster,
			// not the chip; harnesses route them via Schedule.Controls()
			// and Schedule.ChipControls().
			continue
		case KindCorrupt:
			k := linkKey{e.Tile, e.Dir, e.Net}
			t := inj.pops[k]
			if t == nil {
				t = &popTap{}
				inj.pops[k] = t
			}
			t.taps = insertByWordIdx(t.taps, e)
		case KindDrop:
			k := linkKey{e.Tile, e.Dir, e.Net}
			t := inj.pushes[k]
			if t == nil {
				t = &pushTap{}
				inj.pushes[k] = t
			}
			t.taps = insertByWordIdx(t.taps, e)
		default:
			timed = append(timed, e)
		}
	}
	inj.timed = sortEvents(timed)
	return inj
}

// insertByWordIdx keeps a tap list ordered by WordIdx (stable insertion;
// tap lists are tiny).
func insertByWordIdx(taps []Event, e Event) []Event {
	i := len(taps)
	for i > 0 && taps[i-1].WordIdx > e.WordIdx {
		i--
	}
	taps = append(taps, Event{})
	copy(taps[i+1:], taps[i:])
	taps[i] = e
	return taps
}

// BeginCycle recomputes the cycle's fault state from the timed events.
// Schedules are small (a chaos run carries tens of events), so a linear
// sweep per cycle is cheaper than maintaining incremental activation
// lists — and trivially deterministic.
func (inj *Injector) BeginCycle(cycle int64) {
	for i := range inj.frozen {
		inj.frozen[i] = false
	}
	clear(inj.stalled)
	inj.penalty = 0
	for i := range inj.timed {
		e := &inj.timed[i]
		if e.Start > cycle {
			break // sorted: nothing later is active yet
		}
		switch e.Kind {
		case KindLink:
			if cycle < e.Start+e.Dur {
				inj.stalled[linkKey{e.Tile, e.Dir, e.Net}] = true
			}
		case KindFlap:
			// Repeat windows of Dur stalled, Dur healthy between them.
			off := cycle - e.Start
			if off < int64(e.Repeat)*2*e.Dur-e.Dur && (off/e.Dur)%2 == 0 {
				inj.stalled[linkKey{e.Tile, e.Dir, e.Net}] = true
			}
		case KindFreeze:
			if cycle < e.Start+e.Dur {
				inj.frozen[e.Tile] = true
			}
		case KindCrash:
			inj.frozen[e.Tile] = true
		case KindDRAM:
			if cycle < e.Start+e.Dur && e.Extra > inj.penalty {
				inj.penalty = e.Extra
			}
		}
	}
}

// NextDue implements raw.Due from the schedule, since BeginCycle does not
// run inside a macro window: cycle while a timed event is active (a flap
// over its whole span), else the next Start, or -1. A crash is due only
// at its Start: from then on its tile stays frozen and changes nothing,
// and macro windows and parking treat a frozen tile as inert. Taps never
// make the plane due: macro windows pass every popped word through
// CorruptPop, and drop taps count pushes made between Run calls.
func (inj *Injector) NextDue(cycle int64) int64 {
	for i := range inj.timed {
		e := &inj.timed[i]
		if e.Start > cycle {
			return e.Start // sorted: the earliest later start
		}
		end := e.Start + e.Dur
		switch e.Kind {
		case KindFlap:
			end = e.Start + int64(2*e.Repeat-1)*e.Dur
		case KindCrash:
			end = e.Start + 1
		}
		if cycle < end {
			return cycle
		}
	}
	return -1
}

// TileFrozen implements raw.FaultPlane.
func (inj *Injector) TileFrozen(tile int) bool { return inj.frozen[tile] }

// LinkStalled implements raw.FaultPlane.
func (inj *Injector) LinkStalled(tile int, d raw.Dir, net int) bool {
	if len(inj.stalled) == 0 {
		return false
	}
	return inj.stalled[linkKey{tile, d, net}]
}

// CorruptPop implements raw.FaultPlane.
func (inj *Injector) CorruptPop(tile int, d raw.Dir, net int, w raw.Word) raw.Word {
	t := inj.pops[linkKey{tile, d, net}]
	if t == nil {
		return w
	}
	idx := t.count
	t.count++
	for t.next < len(t.taps) && t.taps[t.next].WordIdx <= idx {
		if t.taps[t.next].WordIdx == idx {
			w ^= 1 << t.taps[t.next].Bit
		}
		t.next++
	}
	return w
}

// DropEdgeWord implements raw.FaultPlane.
func (inj *Injector) DropEdgeWord(tile int, d raw.Dir, net int) bool {
	t := inj.pushes[linkKey{tile, d, net}]
	if t == nil {
		return false
	}
	idx := t.count
	t.count++
	for t.next < len(t.taps) {
		e := &t.taps[t.next]
		if idx >= e.WordIdx+e.Count {
			t.next++
			continue
		}
		return idx >= e.WordIdx
	}
	return false
}

// DRAMPenalty implements raw.FaultPlane.
func (inj *Injector) DRAMPenalty() int { return inj.penalty }
