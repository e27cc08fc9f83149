package raw

import "math/bits"

// The compiled fast engine.
//
// The reference engine (static.go, dynamic.go, tile.go) interprets
// []SwInstr route slices and reaches every queue through the wordQueue
// interface, re-deriving neighbor/boundary topology on each transfer.
// That dispatch — not the transfers themselves — dominates the cycle
// loop. The fast engine removes it without changing any simulated state:
//
//   - Switch programs are pre-flattened (CompiledProgram) and every
//     (tile, network) switch gets a swBind with its five source and five
//     destination endpoints resolved to concrete ring buffers, boundary
//     sinks, and precomputed fault keys. A cycle step is then array
//     arithmetic over dense [pc] tables.
//   - Every (tile, network) dynamic router gets a dynBind with concrete
//     input/output queue references and its boundary/device bindings
//     resolved, plus an early exit when no worm is active and no input
//     has a word — the common case on a lightly loaded mesh, and ~800
//     interface calls per cycle in the reference engine. A router that
//     takes the early exit sleeps until an input it pops commits or is
//     snapshotted, and is not stepped meanwhile (park.go).
//   - The commit phase walks the chip's commit list — the queues a
//     cycle popped or pushed — instead of sweeping all of them, and
//     snapshots only the edge queues pushed since the last cycle.
//   - A tile whose next step would change only its counters parks until
//     a queue it pops or pushes commits (park.go); its skipped steps
//     accrue lazily. The step loop walks only the awake set.
//
// Because the fast engine mutates the same swState/Exec/dynRouter/fifo
// objects the reference engine does, checkpoints, digests, telemetry
// snapshots, and every public accessor are identical by construction;
// the equivalence tests (engine_equiv_test.go, engine_fuzz_test.go,
// internal/fault) verify the per-cycle transition functions match bit
// for bit.
//
// All derived state lives on fastEngine and is rebuilt from scratch by
// buildFastEngine whenever a reconfiguration calls invalidateFast —
// binding rebuilds are rare (program installs, device attachment, fault
// installation, hook registration) and cost microseconds.

// Quiescer is an optional Firmware extension. Quiesced reports that the
// firmware has permanently finished: its Refill step will enqueue nothing
// and has no side effects, now and on every future cycle, until the
// executor is reconfigured (SetFirmware/Reset). The macro-step scan uses it to admit
// an idle tile whose halted program would refill nothing; firmware that
// cannot promise stickiness must not implement it.
type Quiescer interface {
	Quiesced() bool
}

// swBind is one static switch's compiled execution context: the switch
// state it advances plus every queue endpoint its routes can touch,
// resolved to concrete types. Exactly one of srcF/srcU is non-nil per
// direction (DirP is csto); dst sides are a fifo (DirP is csti, internal
// links the neighbor's input), or a boundary EdgeSink.
type swBind struct {
	sw   *swState
	tile *Tile
	tid  int32
	net  int32

	srcF [numDirs]*fifo
	srcU [numDirs]*unboundedFIFO

	dstF    [numDirs]*fifo
	dstSink [numDirs]*EdgeSink
	// LinkStalled keys for the dst side: boundary links are keyed by this
	// tile and direction, internal links by the reading endpoint — the
	// neighbor and the opposite direction (see Tile.staticDstReady).
	dstFT [numDirs]int32
	dstFD [numDirs]Dir

	swPC, swDone, swCount *fifo
}

// dynBind is one dynamic router's compiled execution context. asleep
// marks a router whose last step took the early exit; it is not stepped
// until an input it pops commits or is snapshotted (see park.go).
type dynBind struct {
	r      *dynRouter
	recv   *fifo
	asleep bool

	inF [numDirs]*fifo
	inU [numDirs]*unboundedFIFO

	// outF is the delivery fifo per output (recv for DirP, the neighbor's
	// input for internal links; nil at the boundary). outEdge is the
	// attached device binding for boundary outputs (nil when unattached:
	// words fall off the pins, as in Chip.dynEdgeOut).
	outF        [numDirs]*fifo
	outEdge     [numDirs]*dynBinding
	outBoundary [numDirs]bool
}

// declarer is one Due on the chip and the cause its clamp counts under.
type declarer struct {
	Due
	cause MacroCause
}

// fastEngine is the chip-owned derived state of the compiled engine.
type fastEngine struct {
	c  *Chip
	sw []swBind  // [tile*NumStaticNets + net]
	dy []dynBind // [tile*numDynNets + net]

	// fwq caches each tile firmware's Quiescer, nil when the firmware
	// does not implement it (or there is none).
	fwq []Quiescer

	// due lists the chip's declarers; busy and block are the tiles at
	// which procsInert and macro admission's pass 1 last declined, each
	// tested first next time.
	due   []declarer
	busy  int
	block int

	// Parking (see park.go): each tile's record, the awake set (the
	// tiles not parked), the number parked, the tiles whose step this
	// cycle looked inert, and the cycle every tile has completed once the
	// tile loop has run. watched holds the fault plane and the tracer,
	// watchAt their next due cycle.
	park    []parkRec
	awake   tileSet
	parked  int
	cand    []int32
	horizon int64
	watched []Due
	watchAt int64

	// Macro-step scratch (see macro.go): per-switch membership and route
	// masks for the current scan, the reusable plan buffer of admitted
	// streamers, the frozen (provably blocked) switch list awaiting
	// witness verification, and the per-tile processor state each window
	// cycle accrues.
	macroOn   []bool
	macroSrcM []uint8
	macroDstM []uint8
	plan      []int32
	frozen    []int32
	macroSt   []TileState

	// Run moves (see macro.go): the window's streams in discovery order
	// and writers first, each admitted switch's stream per source
	// direction, and one chunk of run scratch per stream, grown on
	// first use.
	streams  []macroStream
	order    []int32
	streamAt []int32 // [(tile*NumStaticNets + net)*numDirs + dir]
	runs     []Word
}

// buildFastEngine resolves all bindings from the chip's current
// configuration. Must run between cycles.
func buildFastEngine(c *Chip) *fastEngine {
	n := len(c.tiles)
	fe := &fastEngine{
		c:         c,
		sw:        make([]swBind, n*NumStaticNets),
		dy:        make([]dynBind, n*numDynNets),
		fwq:       make([]Quiescer, n),
		macroOn:   make([]bool, n*NumStaticNets),
		macroSrcM: make([]uint8, n*NumStaticNets),
		macroDstM: make([]uint8, n*NumStaticNets),
		macroSt:   make([]TileState, n),
		streamAt:  make([]int32, n*NumStaticNets*int(numDirs)),
		park:      make([]parkRec, n),
		awake:     fullTileSet(n),
	}
	for _, h := range c.stepHooks {
		fe.due = append(fe.due, declarer{h, MacroHookDue})
	}
	if c.faults != nil {
		fe.due = append(fe.due, declarer{c.faults, MacroFaults})
		fe.watched = append(fe.watched, c.faults)
	}
	for _, b := range c.bindings {
		fe.due = append(fe.due, declarer{b.dev, MacroDevices})
	}
	if c.cfg.Tracer != nil {
		fe.due = append(fe.due, declarer{c.cfg.Tracer, MacroTracer})
		fe.watched = append(fe.watched, c.cfg.Tracer)
	}
	for _, t := range c.tiles {
		if q, ok := t.exec.fw.(Quiescer); ok {
			fe.fwq[t.id] = q
		}
		for net := 0; net < NumStaticNets; net++ {
			b := &fe.sw[t.id*NumStaticNets+net]
			st := &t.st[net]
			b.sw = &st.sw
			b.tile = t
			b.tid = int32(t.id)
			b.net = int32(net)
			b.srcF[DirP] = st.csto
			b.dstF[DirP] = st.csti
			b.swPC, b.swDone, b.swCount = st.swPC, st.swDone, st.swCount
			for d := DirN; d < DirP; d++ {
				switch q := st.in[d].(type) {
				case *fifo:
					b.srcF[d] = q
				case *unboundedFIFO:
					b.srcU[d] = q
				}
				if t.Boundary(d) {
					b.dstSink[d] = st.edgeOut[d]
					b.dstFT[d] = int32(t.id)
					b.dstFD[d] = d
				} else {
					nb := t.neighbor(d)
					b.dstF[d] = nb.st[net].in[d.Opposite()].(*fifo)
					b.dstFT[d] = int32(nb.id)
					b.dstFD[d] = d.Opposite()
				}
			}
		}
		for net := 0; net < numDynNets; net++ {
			b := &fe.dy[t.id*numDynNets+net]
			r := t.dyn[net]
			b.r = r
			b.recv = r.recv
			for d := DirN; d < numDirs; d++ {
				switch q := r.in[d].(type) {
				case *fifo:
					b.inF[d] = q
				case *unboundedFIFO:
					b.inU[d] = q
				}
			}
			b.outF[DirP] = r.recv
			for d := DirN; d < DirP; d++ {
				if t.Boundary(d) {
					b.outBoundary[d] = true
					b.outEdge[d] = c.dynEdgeSinks[[3]int{t.id, int(d), net}]
				} else {
					nb := t.neighbor(d)
					b.outF[d] = nb.dyn[net].in[d.Opposite()].(*fifo)
				}
			}
		}
	}
	return fe
}

// step runs one cycle's compute and commit phases: snapshot the edge
// queues pushed since the last cycle, step every awake tile the fault
// plane does not freeze, in ascending order, then commit the queues the
// cycle touched, waking the parked tiles at either end of each and the
// sleeping dynamic router that pops it (see park.go).
func (fe *fastEngine) step() {
	c := fe.c
	fe.snapshotEdges()
	fe.watch(c.cycle)
	fp := c.faults
	for wi, w := range fe.awake {
		for ; w != 0; w &= w - 1 {
			id := wi<<6 | bits.TrailingZeros64(w)
			if fp == nil || !fp.TileFrozen(id) {
				fe.stepTile(c.tiles[id])
			}
		}
	}
	fe.horizon = c.cycle + 1
	for _, f := range c.commits {
		f.commit()
		if f.dyn >= 0 {
			fe.dy[f.dyn].asleep = false
		}
		if fe.parked > 0 {
			fe.wake(f.rd, fe.horizon)
			fe.wake(f.wr, fe.horizon)
		}
	}
	c.commits = c.commits[:0]
	for _, q := range c.edgePops {
		q.commit()
	}
	c.edgePops = c.edgePops[:0]
}

// stepTile advances one tile's engines one cycle under the compiled
// paths; the processor executor is shared with the reference engine.
// Engine order matches Tile.step (irrelevant to the outcome — the
// two-phase queue discipline makes the cycle order-independent — but
// kept identical for clarity); a sleeping dynamic router is skipped. A
// step in which the processor neither ran nor waited on its cache and no
// switch moved a word makes the tile a parking candidate.
func (fe *fastEngine) stepTile(t *Tile) {
	t.exec.step()
	fp := fe.c.faults
	cyc := fe.c.cycle
	i := t.id * NumStaticNets
	fe.sw[i].step(fp, cyc)
	fe.sw[i+1].step(fp, cyc)
	j := t.id * numDynNets
	if !fe.dy[j].asleep {
		fe.dy[j].step()
	}
	if !fe.dy[j+1].asleep {
		fe.dy[j+1].step()
	}
	if st := t.exec.state; st != StateRun && st != StateStallCache &&
		!fe.sw[i].sw.movedNow && !fe.sw[i+1].sw.movedNow {
		fe.cand = append(fe.cand, int32(t.id))
	}
}

// --- compiled static switch step -------------------------------------
//
// step/stepLoop/fire mirror swState.step/stepLoop/fire instruction for
// instruction; the only differences are the dense program tables, the
// concrete queue references, and computing the activity flags directly
// instead of via a deferred counter comparison.

func (b *swBind) step(fp FaultPlane, cyc int64) {
	s := b.sw
	s.movedNow = false
	s.stalledNow = false
	if s.halted || s.pc >= len(s.prog) {
		s.halted = true
		return
	}
	cp := s.comp
	pc := s.pc
	switch cp.op[pc] {
	case SwHalt:
		s.halted = true
	case SwJump:
		if b.fire(fp, cp, pc, cyc) {
			s.pc = int(cp.arg[pc])
			s.movedNow = cp.count[pc] != 0
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwRecvPC:
		if b.swPC.CanPop() {
			s.pc = int(b.swPC.Pop())
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwNotify:
		if b.swDone.CanPush() {
			b.swDone.Push(cp.arg[pc])
			s.pc++
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwRoute:
		if b.fire(fp, cp, pc, cyc) {
			s.pc++
			s.movedNow = cp.count[pc] != 0
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwRouteN:
		if !s.loaded {
			s.remaining = int(cp.arg[pc])
			s.loaded = true
		}
		b.stepLoop(fp, cp, pc, cyc)
	case SwRouteV:
		if !s.loaded {
			if !b.swCount.CanPop() {
				s.stalls++
				s.stalledNow = true
				return
			}
			s.remaining = int(b.swCount.Pop())
			s.loaded = true
			return // loading the count register takes the cycle
		}
		b.stepLoop(fp, cp, pc, cyc)
	}
}

// swNext classifies a switch's next step, ordered by how much it does.
type swNext uint8

const (
	swHalted  swNext = iota // halted: the step changes nothing
	swBlocked               // stalled at its instruction: the step counts one stall
	swFires                 // a route instruction whose routes are all ready
	swMoves                 // latches halt, loads a count, jumps, notifies or advances
)

// next classifies the switch's next step from the committed queue state,
// with no fault active: the one blocked-switch test, shared by parking
// and the macro-window scan. A route instruction is blocked when any of
// its routes is not ready; register operations block on the
// processor-owned PC, done and count queues.
func (b *swBind) next() swNext {
	s := b.sw
	if s.halted {
		return swHalted
	}
	if s.pc >= len(s.prog) {
		return swMoves // the step latches halted
	}
	cp, pc := s.comp, s.pc
	switch op := cp.op[pc]; op {
	case SwHalt:
		return swMoves
	case SwRecvPC:
		if b.swPC.CanPop() {
			return swMoves // would jump
		}
		return swBlocked
	case SwNotify:
		if b.swDone.CanPush() {
			return swMoves // would notify and advance
		}
		return swBlocked
	case SwRouteN, SwRouteV:
		if !s.loaded {
			// RouteN loads its count even on a stalled first cycle;
			// RouteV loads it from the processor's count register.
			if op == SwRouteV && !b.swCount.CanPop() {
				return swBlocked
			}
			return swMoves
		}
		if s.remaining <= 0 {
			return swMoves // the step advances pc
		}
	}
	lo := cp.base[pc]
	hi := lo + uint32(cp.count[pc])
	for i := lo; i < hi; i++ {
		if !b.srcReady(nil, Dir(cp.src[i])) || !b.dstReady(nil, Dir(cp.dst[i])) {
			return swBlocked
		}
	}
	return swFires
}

func (b *swBind) stepLoop(fp FaultPlane, cp *CompiledProgram, pc int, cyc int64) {
	s := b.sw
	if s.remaining <= 0 {
		s.pc++
		s.loaded = false
		return
	}
	if b.fire(fp, cp, pc, cyc) {
		s.movedNow = cp.count[pc] != 0
		s.remaining--
		if s.remaining == 0 {
			s.pc++
			s.loaded = false
		}
	} else {
		s.stalls++
		s.stalledNow = true
	}
}

func (b *swBind) fire(fp FaultPlane, cp *CompiledProgram, pc int, cyc int64) bool {
	lo := cp.base[pc]
	hi := lo + uint32(cp.count[pc])
	for i := lo; i < hi; i++ {
		if !b.srcReady(fp, Dir(cp.src[i])) || !b.dstReady(fp, Dir(cp.dst[i])) {
			return false
		}
	}
	var val [numDirs]Word
	var have [numDirs]bool
	for i := lo; i < hi; i++ {
		sd := cp.src[i]
		if !have[sd] {
			val[sd] = b.pop(fp, Dir(sd))
			have[sd] = true
		}
	}
	for i := lo; i < hi; i++ {
		b.push(Dir(cp.dst[i]), val[cp.src[i]], cyc)
	}
	b.sw.moves += int64(cp.count[pc])
	return true
}

func (b *swBind) srcReady(fp FaultPlane, d Dir) bool {
	if f := b.srcF[d]; f != nil {
		if d != DirP && fp != nil && fp.LinkStalled(int(b.tid), d, int(b.net)) {
			return false
		}
		return f.CanPop()
	}
	if fp != nil && fp.LinkStalled(int(b.tid), d, int(b.net)) {
		return false
	}
	return b.srcU[d].CanPop()
}

func (b *swBind) dstReady(fp FaultPlane, d Dir) bool {
	if d == DirP {
		return b.dstF[DirP].CanPush()
	}
	if fp != nil && fp.LinkStalled(int(b.dstFT[d]), b.dstFD[d], int(b.net)) {
		return false
	}
	if f := b.dstF[d]; f != nil {
		return f.CanPush()
	}
	return true // boundary sink: off-chip buffering always has space
}

func (b *swBind) pop(fp FaultPlane, d Dir) Word {
	if d == DirP {
		return b.srcF[DirP].Pop()
	}
	var w Word
	if f := b.srcF[d]; f != nil {
		w = f.Pop()
	} else {
		w = b.srcU[d].Pop()
	}
	if fp != nil {
		w = fp.CorruptPop(int(b.tid), d, int(b.net), w)
	}
	return w
}

func (b *swBind) push(d Dir, w Word, cyc int64) {
	if f := b.dstF[d]; f != nil {
		f.Push(w)
		return
	}
	b.dstSink[d].push(cyc, w)
}

// --- compiled dynamic router step ------------------------------------

// quiet reports whether the router's next step changes nothing: it is
// asleep, or idle.
func (b *dynBind) quiet() bool { return b.asleep || b.idle() }

// idle reports whether the router holds no worm and no input word, so
// its steps change nothing until a word arrives.
func (b *dynBind) idle() bool {
	r := b.r
	for d := DirN; d < numDirs; d++ {
		if r.lock[d].active {
			return false
		}
		if f := b.inF[d]; f != nil {
			if f.Len() != 0 {
				return false
			}
		} else if b.inU[d].Len() != 0 {
			return false
		}
	}
	return true
}

func (b *dynBind) canPop(d Dir) bool {
	if f := b.inF[d]; f != nil {
		return f.CanPop()
	}
	return b.inU[d].CanPop()
}

func (b *dynBind) poppedThisCycle(d Dir) bool {
	if f := b.inF[d]; f != nil {
		return f.poppedThisCycle()
	}
	return b.inU[d].poppedThisCycle()
}

func (b *dynBind) peek(d Dir) Word {
	if f := b.inF[d]; f != nil {
		return f.Peek()
	}
	return b.inU[d].Peek()
}

func (b *dynBind) pop(d Dir) Word {
	if f := b.inF[d]; f != nil {
		return f.Pop()
	}
	return b.inU[d].Pop()
}

func (b *dynBind) dstReady(d Dir) bool {
	if b.outBoundary[d] {
		return true
	}
	return b.outF[d].CanPush()
}

func (b *dynBind) deliver(d Dir, w Word) {
	r := b.r
	r.moves++
	if b.outBoundary[d] {
		if e := b.outEdge[d]; e != nil {
			e.outBuf = append(e.outBuf, w)
		}
		return
	}
	b.outF[d].Push(w)
}

// step mirrors dynRouter.step over the resolved bindings, with one added
// early exit: a router with no active worm and no poppable input cannot
// change any state this cycle (the reference loop would scan all 25
// output×input pairs through interface calls to conclude the same), nor
// on any later cycle until an input commits or is snapshotted, so it
// falls asleep.
func (b *dynBind) step() {
	r := b.r
	if !r.lock[0].active && !r.lock[1].active && !r.lock[2].active &&
		!r.lock[3].active && !r.lock[4].active &&
		!b.canPop(0) && !b.canPop(1) && !b.canPop(2) &&
		!b.canPop(3) && !b.canPop(4) {
		b.asleep = true
		return
	}
	for out := DirN; out < numDirs; out++ {
		l := &r.lock[out]
		if l.active {
			if b.canPop(l.input) && b.dstReady(out) {
				b.deliver(out, b.pop(l.input))
				l.remaining--
				if l.remaining == 0 {
					l.active = false
					r.busy[l.input] = false
				}
			}
			continue
		}
		for k := 0; k < int(numDirs); k++ {
			inDir := Dir((int(r.rr[out]) + k) % int(numDirs))
			if r.busy[inDir] || !b.canPop(inDir) || b.poppedThisCycle(inDir) {
				continue
			}
			h := b.peek(inDir)
			if r.route(h) != out || !b.dstReady(out) {
				continue
			}
			b.deliver(out, b.pop(inDir))
			_, _, plen := DecodeDynHeader(h)
			if plen > 0 {
				l.active = true
				l.input = inDir
				l.remaining = plen
				r.busy[inDir] = true
			}
			r.rr[out] = Dir((int(inDir) + 1) % int(numDirs))
			break
		}
	}
}
