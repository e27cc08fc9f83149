// Package raw implements a deterministic, cycle-stepped simulator of the
// Raw tiled general-purpose processor (Waingold et al., IEEE Computer 1997;
// Taylor, MIT 1999), at the fidelity needed to reproduce the router results
// of Chuvpilo's "High-Bandwidth Packet Switching on the Raw General-Purpose
// Architecture" (MIT, 2002).
//
// The simulated chip is a Width x Height mesh of tiles. Each tile contains:
//
//   - a tile processor, modeled as firmware executing micro-ops with
//     explicit cycle costs (see Exec), or as interpreted Raw-like assembly
//     (see subpackage asm);
//   - a static switch processor executing a route program: one instruction
//     per cycle, each instruction moving words between the five directions
//     (North, East, South, West, Processor) with blocking flow control;
//   - two dynamic networks (general and memory), wormhole-routed and
//     dimension-ordered, used for messages whose pattern is not known at
//     compile time (e.g. cache misses);
//   - a 2-way set-associative data cache (8,192 words, 32-byte lines,
//     3-cycle hits) backed by off-chip DRAM over the memory dynamic
//     network.
//
// Boundary tiles expose their off-chip static and dynamic links as edge
// ports; workload generators push words into edge inputs and drain edge
// outputs, exactly as line cards appear to the chip in the paper.
//
// Determinism: every queue has a single reader and a single writer, and all
// availability/space decisions are made against a start-of-cycle snapshot,
// so the result of a cycle is independent of the order in which tiles are
// stepped. Two identical runs produce identical cycle counts.
package raw

import "fmt"

// Word is the 32-bit machine word of the Raw processor. All network links
// move one Word per cycle.
type Word uint32

// Dir identifies one of the five ports of a static switch crossbar or
// dynamic router: the four mesh neighbors and the tile processor.
type Dir uint8

// The five crossbar directions. DirP is the tile processor port.
const (
	DirN Dir = iota
	DirE
	DirS
	DirW
	DirP
	numDirs
)

// String returns the conventional single-letter name of the direction.
func (d Dir) String() string {
	switch d {
	case DirN:
		return "N"
	case DirE:
		return "E"
	case DirS:
		return "S"
	case DirW:
		return "W"
	case DirP:
		return "P"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the direction facing d across a mesh link. It panics on
// DirP, which has no opposite.
func (d Dir) Opposite() Dir {
	switch d {
	case DirN:
		return DirS
	case DirS:
		return DirN
	case DirE:
		return DirW
	case DirW:
		return DirE
	}
	panic("raw: DirP has no opposite")
}

// TileState classifies what a tile processor did in a given cycle. It is
// the vocabulary of the per-tile utilization traces behind Figure 7-3 of
// the paper ("gray means blocked on transmit, receive, or cache miss").
type TileState uint8

const (
	// StateIdle: the processor had no work queued.
	StateIdle TileState = iota
	// StateRun: the processor executed useful work.
	StateRun
	// StateStallSend: blocked writing to a full network port.
	StateStallSend
	// StateStallRecv: blocked reading from an empty network port.
	StateStallRecv
	// StateStallCache: blocked on a data cache miss.
	StateStallCache
)

// Blocked reports whether the state counts as "gray" in Figure 7-3 terms:
// blocked on transmit, receive, or cache miss.
func (s TileState) Blocked() bool {
	return s == StateStallSend || s == StateStallRecv || s == StateStallCache
}

// String returns a short human-readable name for the state.
func (s TileState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRun:
		return "run"
	case StateStallSend:
		return "stall-send"
	case StateStallRecv:
		return "stall-recv"
	case StateStallCache:
		return "stall-cache"
	}
	return fmt.Sprintf("TileState(%d)", uint8(s))
}

// Tracer receives one callback per tile per cycle. Implementations must be
// cheap; the hot path calls it Width*Height times per simulated cycle.
type Tracer interface {
	Due
	Record(cycle int64, tile int, state TileState)
}

// Architectural constants of the Raw prototype, from Chapter 3 of the
// paper. They are exported so that schedulers and code generators can
// enforce the same resource budgets the thesis had to respect.
const (
	// IMemWords is the per-tile local instruction memory (8,192 32-bit
	// words).
	IMemWords = 8192
	// SwMemWords is the per-tile switch instruction memory (8,192 words).
	SwMemWords = 8192
	// DCacheWords is the per-tile data cache capacity in 32-bit words.
	DCacheWords = 8192
	// CacheLineWords is the cache line size (32 bytes = 8 words).
	CacheLineWords = 8
	// CacheHitCycles is the data cache hit latency.
	CacheHitCycles = 3
	// DefaultClockHz is the Raw prototype's expected clock (250 MHz).
	DefaultClockHz = 250e6
	// MaxDynMessageWords is the maximum dynamic-network message length
	// including the header word.
	MaxDynMessageWords = 32
)
