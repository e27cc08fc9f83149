package raw

import "fmt"

// wordQueue abstracts the two queue flavors used for network inputs:
// bounded on-chip fifos and unbounded edge fifos.
type wordQueue interface {
	CanPop() bool
	Peek() Word
	Pop() Word
	Len() int
	poppedThisCycle() bool
}

// NumStaticNets is the number of static networks per tile: the Raw chip
// has two (§3.1: "two static switch crossbars"). The thesis's router uses
// only network 0 ("the second Raw static network ... have not been used
// in the algorithm", §6.5); network 1 exists, works, and idles — exactly
// the spare capacity §8.1 points at.
const NumStaticNets = 2

// staticNet is one static network's per-tile state: the switch processor,
// its input queues, boundary sinks, and the register-mapped processor
// interface.
type staticNet struct {
	sw swState

	// in holds input queues from the four neighbors. Internal links are
	// bounded fifos owned by this tile and written by the neighbor's
	// switch; boundary links are unbounded edge fifos written by the
	// testbench.
	in [4]wordQueue
	// edgeOut holds boundary static outputs (nil on internal sides).
	edgeOut [4]*EdgeSink

	// Processor <-> switch queues (the register-mapped $csto / $csti of
	// §3.2, plus the control registers of §6.5).
	csto    *fifo // processor -> switch, capacity 2
	csti    *fifo // switch -> processor, capacity 4
	swPC    *fifo // processor -> switch program counter, capacity 1
	swDone  *fifo // switch -> processor confirmation, capacity 1
	swCount *fifo // processor -> switch loop count, capacity 1
}

// Tile is one tile of the Raw chip: a processor, two static switches, two
// dynamic routers, and a data cache.
type Tile struct {
	chip *Chip
	id   int
	x, y int

	st [NumStaticNets]staticNet

	dyn [2]*dynRouter

	cache *dcache

	exec *Exec
}

// step advances every engine on the tile by one cycle: the processor, the
// two static switches, and the two dynamic routers. All queue decisions
// observe start-of-cycle snapshots and all queue writes are staged (see
// fifo), so the order of tiles — and the order of engines within a tile —
// cannot change the cycle's outcome. The only cross-tile touches during a
// step are pushes into neighbor input queues, and each such queue has
// exactly one writing tile.
func (t *Tile) step() {
	t.exec.step()
	for net := 0; net < NumStaticNets; net++ {
		t.st[net].sw.step()
	}
	t.dyn[DynGeneral].step()
	t.dyn[DynMemory].step()
}

// ID returns the tile number (row-major, tile 0 at the north-west corner,
// matching Figure 3-1 / 7-2 of the paper).
func (t *Tile) ID() int { return t.id }

// Boundary reports whether direction d points off-chip from this tile.
func (t *Tile) Boundary(d Dir) bool {
	switch d {
	case DirN:
		return t.y == 0
	case DirS:
		return t.y == t.chip.cfg.Height-1
	case DirW:
		return t.x == 0
	case DirE:
		return t.x == t.chip.cfg.Width-1
	}
	return false
}

// neighbor returns the tile across link d, or nil at the boundary.
func (t *Tile) neighbor(d Dir) *Tile {
	if t.Boundary(d) {
		return nil
	}
	switch d {
	case DirN:
		return t.chip.tiles[t.id-t.chip.cfg.Width]
	case DirS:
		return t.chip.tiles[t.id+t.chip.cfg.Width]
	case DirW:
		return t.chip.tiles[t.id-1]
	case DirE:
		return t.chip.tiles[t.id+1]
	}
	return nil
}

// staticSrcReady reports whether net's switch can read a word from port d
// this cycle.
func (t *Tile) staticSrcReady(net int, d Dir) bool {
	if d == DirP {
		return t.st[net].csto.CanPop()
	}
	if fp := t.chip.faults; fp != nil && fp.LinkStalled(t.id, d, net) {
		return false
	}
	q := t.st[net].in[d]
	return q != nil && q.CanPop()
}

// staticDstReady reports whether net's switch can write a word to port d
// this cycle. Boundary outputs sink off-chip and always have space (§4.4:
// the paper assumes large buffering external to the chip).
func (t *Tile) staticDstReady(net int, d Dir) bool {
	if d == DirP {
		return t.st[net].csti.CanPush()
	}
	if t.Boundary(d) {
		// A stalled boundary link refuses the outbound direction too (the
		// whole physical link is down, both ways).
		if fp := t.chip.faults; fp != nil && fp.LinkStalled(t.id, d, net) {
			return false
		}
		return true
	}
	n := t.neighbor(d)
	// A stalled link is keyed by its reading endpoint: the neighbor's
	// input queue from the opposite side is the queue this push feeds.
	if fp := t.chip.faults; fp != nil && fp.LinkStalled(n.id, d.Opposite(), net) {
		return false
	}
	return n.st[net].in[d.Opposite()].(*fifo).CanPush()
}

func (t *Tile) staticPop(net int, d Dir) Word {
	if d == DirP {
		return t.st[net].csto.Pop()
	}
	w := t.st[net].in[d].Pop()
	if fp := t.chip.faults; fp != nil {
		w = fp.CorruptPop(t.id, d, net, w)
	}
	return w
}

func (t *Tile) staticPush(net int, d Dir, w Word) {
	if d == DirP {
		t.st[net].csti.Push(w)
		return
	}
	if t.Boundary(d) {
		t.st[net].edgeOut[d].push(t.chip.cycle, w)
		return
	}
	t.neighbor(d).st[net].in[d.Opposite()].(*fifo).Push(w)
}

// ResetStatic discards all in-flight words on one static network of this
// tile: the processor<->switch queues and the bounded input queues from
// the four neighbors. Boundary edge queues (external input backlog and
// output sinks) are preserved — they model off-chip line buffers that
// survive an on-chip reprogramming. Used by the router's degraded-mode
// reconfiguration; must be called between cycles.
func (t *Tile) ResetStatic(net int) {
	t.chip.invalidateFast()
	st := &t.st[net]
	st.csto.reset()
	st.csti.reset()
	st.swPC.reset()
	st.swDone.reset()
	st.swCount.reset()
	for d := DirN; d < DirP; d++ {
		if f, ok := st.in[d].(*fifo); ok {
			f.reset()
		}
	}
}

// SetSwitchProgram installs a static switch program on network 0.
func (t *Tile) SetSwitchProgram(prog []SwInstr) error {
	return t.SetSwitchProgramOn(0, prog)
}

// SetSwitchProgramOn installs a static switch program on one of the two
// static networks.
func (t *Tile) SetSwitchProgramOn(net int, prog []SwInstr) error {
	if err := t.st[net].sw.SetProgram(prog); err != nil {
		return fmt.Errorf("tile %d net %d: %w", t.id, net, err)
	}
	return nil
}

// SetCompiledSwitchProgram installs a pre-compiled program on network 0.
func (t *Tile) SetCompiledSwitchProgram(cp *CompiledProgram) {
	t.SetCompiledSwitchProgramOn(0, cp)
}

// SetCompiledSwitchProgramOn installs a pre-compiled switch program,
// skipping revalidation and recompilation. The router's codegen compiles
// each program once and reinstalls the same object on every
// degrade/restore reconfiguration.
func (t *Tile) SetCompiledSwitchProgramOn(net int, cp *CompiledProgram) {
	t.st[net].sw.setCompiled(cp)
}

// Switch exposes network 0's static switch for statistics.
func (t *Tile) Switch() *swState { return &t.st[0].sw }

// SwitchOn exposes one network's static switch.
func (t *Tile) SwitchOn(net int) *swState { return &t.st[net].sw }

// Exec returns the tile processor's micro-op executor.
func (t *Tile) Exec() *Exec { return t.exec }

// CacheStats returns the tile data cache's cumulative hit and miss counts
// (equivalence tests and utilization studies).
func (t *Tile) CacheStats() (hits, misses int64) { return t.cache.Hits(), t.cache.Misses() }

// InvalidateCacheRange drops, without write-back, the data-cache lines
// holding a word of [addr, addr+n), whose DRAM was rewritten behind the
// cache; an access in flight completes on the words it holds. Call
// between cycles.
func (t *Tile) InvalidateCacheRange(addr Word, n int) { t.cache.invalidate(addr, n) }

// EdgeSink collects words that left the chip through a boundary static
// link, stamped with the cycle they crossed the pins. At most one word
// crosses a link per cycle, so the stamps are kept as runs of words that
// left on consecutive cycles: a macro window appends one run.
type EdgeSink struct {
	words []Word
	runs  []stampRun
	total int64
}

// stampRun stamps n consecutive buffered words with the cycles at,
// at+1, ..., at+n-1.
type stampRun struct{ at, n int64 }

func (s *EdgeSink) push(cycle int64, w Word) {
	s.words = append(s.words, w)
	s.stamp(cycle, 1)
}

// pushRun sinks ws, which left on consecutive cycles from at.
func (s *EdgeSink) pushRun(at int64, ws []Word) {
	s.words = append(s.words, ws...)
	s.stamp(at, int64(len(ws)))
}

func (s *EdgeSink) stamp(at, n int64) {
	s.total += n
	if k := len(s.runs) - 1; k >= 0 && s.runs[k].at+s.runs[k].n == at {
		s.runs[k].n += n
		return
	}
	s.runs = append(s.runs, stampRun{at, n})
}

// Drain returns and clears the buffered words and their exit cycles.
func (s *EdgeSink) Drain() ([]Word, []int64) {
	var cycles []int64
	if len(s.words) > 0 {
		cycles = make([]int64, 0, len(s.words))
	}
	for _, r := range s.runs {
		for c := r.at; c < r.at+r.n; c++ {
			cycles = append(cycles, c)
		}
	}
	return s.DrainWords(), cycles
}

// DrainWords returns and clears the buffered words, dropping their exit
// cycles.
func (s *EdgeSink) DrainWords() []Word {
	w := s.words
	s.words, s.runs = nil, s.runs[:0]
	return w
}

// Count returns the total number of words ever sunk, including drained
// ones.
func (s *EdgeSink) Count() int64 { return s.total }

// Held returns how many sunk words are currently buffered (not yet
// drained).
func (s *EdgeSink) Held() int { return len(s.words) }

// DropFront discards the first n buffered words. Checkpoint restore uses
// it to realign a replayed sink with the prefix the original run had
// already drained; Count is unaffected.
func (s *EdgeSink) DropFront(n int) {
	if n < 0 || n > len(s.words) {
		panic("raw: DropFront beyond buffered words")
	}
	s.words = s.words[n:]
	i, left := 0, int64(n)
	for left > 0 && left >= s.runs[i].n {
		left -= s.runs[i].n
		i++
	}
	s.runs = s.runs[i:]
	if left > 0 {
		s.runs[0].at += left
		s.runs[0].n -= left
	}
}

// StaticIn is a testbench handle for pushing words into a boundary static
// input link. Words pushed become visible to the switch on the next cycle.
type StaticIn struct {
	q    *unboundedFIFO
	chip *Chip
	tile int
	dir  Dir
	net  int
}

// Push appends words to the external input stream. With a fault plane
// installed, individual words may be lost at the pins (DropEdgeWord).
func (in *StaticIn) Push(words ...Word) {
	fp := in.chip.faults
	rec := in.chip.rec
	for _, w := range words {
		// Record before the fault plane's drop check: the checkpoint log
		// holds what the testbench offered, and replay reproduces the
		// injector's drops from its own deterministic counters.
		if rec != nil && rec.active {
			rec.log = append(rec.log, inputRec{
				cycle: in.chip.cycle, tile: uint16(in.tile),
				dir: uint8(in.dir), net: uint8(in.net), word: w,
			})
		}
		if fp != nil && fp.DropEdgeWord(in.tile, in.dir, in.net) {
			continue
		}
		in.q.Push(w)
	}
}

// Len returns the number of words waiting on the external side.
func (in *StaticIn) Len() int { return in.q.Len() }

// Consumed returns the cumulative number of words the switch has popped
// (and committed) from this input since construction. Reading it between
// cycles — or from firmware, whose prior pops are always committed before
// the next refill — gives an exact stream position.
func (in *StaticIn) Consumed() int64 { return in.q.taken }
