package raw

import (
	"math/bits"
	"slices"
)

// Steady-state macro-stepping.
//
// The paper's streaming workloads spend most cycles in tight switch
// loops moving one word per cycle per link while every tile processor is
// either idle or parked on a blocking network operation. In that regime
// the per-cycle transition function is affine: every admitted switch
// fires every cycle, every frozen engine repeats the same stall, and
// queue occupancies change by a constant per cycle. tryMacroStep detects
// the regime, computes the largest window K over which it provably
// persists, and advances K cycles by moving runs of words — then
// restores the exact state single-cycle stepping would have produced.
//
// Any refusal falls back to Chip.Step, which is always correct; every
// declined window is attributed in MacroDisarms. Each declarer (see Due)
// clamps the window to its next due cycle, so a supervisor between
// quantum boundaries, a schedule between faults, an idle memory port or
// a tracer outside its window does not disarm the stepper.
//
// Tile admission (per-cycle scan from the park set). An attempt first
// snapshots the edge queues pushed since the last cycle, as Step would,
// so the park set it reads is current: a tile or router a fresh word
// wakes is classified awake. It then settles the fault plane for the
// window's first cycle (BeginCycle), and skips a tile the plane freezes:
// a frozen tile steps and counts nothing, in the window as in a stepped
// cycle, so a crashed tile does not keep windows from opening. Only
// awake tiles (park.go) take the tests below — the processor scan
// (procsInert) and then the rest (admitTile), each starting at the tile
// at which it last declined and attributing a decline to it if it still
// fails. A parked tile passes them by the invariant that lets its steps
// be skipped: its record holds its processor state, and its switches
// not halted join the frozen list, which pass 2 verifies like any other.
//
//   - Every processor is either stable-idle (no queued micro-ops, state
//     already Idle, firmware absent or permanently quiesced) or provably
//     blocked at its current micro-op: parked on an empty receive queue
//     or a full send queue whose counter-party is itself frozen for the
//     window. A blocked processor completes no op, so it runs no
//     firmware step and never refills, and the phase its firmware is in
//     cannot matter; live firmware is declined only when nothing is
//     queued, since the next step would refill.
//   - Every dynamic router is asleep, or has no active worm and empty
//     inputs.
//   - Every static switch is halted, admitted as a streamer, or frozen.
//     A streamer is a fireable self-perpetuating route loop — a SwJump
//     self-loop, or a loaded SwRouteN/SwRouteV with iterations remaining
//     (bounding the window) — touching no processor port. A frozen
//     switch is provably stalled for the whole window: blocked on the
//     processor-owned PC/done/count registers (the processor is frozen),
//     or a route instruction with at least one stably non-ready route —
//     an empty source no admitted streamer writes, or a full destination
//     no admitted streamer drains. Anything else (about to halt, load a
//     count, take a jump, or fire a one-shot or processor-coupled
//     route) aborts the window.
//
// The window bound: each streamed queue's occupancy changes by δ ∈
// {-1, 0, +1} per cycle (reader only / reader+writer / writer only).
// δ=0 queues never limit. A drained queue (δ=-1, occupancy L) supports
// K ≤ L; a filled queue (δ=+1) supports K ≤ cap−L; edge input backlogs
// support K ≤ backlog; boundary sinks are unbounded; a loaded counted
// loop supports K ≤ remaining; a declarer due at cycle D supports
// K ≤ D − cycle. By induction, within K = min(bounds) cycles no source
// empties, no destination fills, and no frozen witness changes, so every
// admitted switch fires and every frozen engine stalls every cycle, and
// per-cycle two-phase staging is unnecessary: a popped queue keeps
// occupancy ≥ 1, so a same-cycle push can never be observed by the pop
// regardless of intra-cycle order.
//
// Executing the window (moveRuns): a stream is one streamer's distinct
// source direction, and its run is the K words it pops, in order. An
// edge backlog or a δ=-1 queue yields its first K words; a δ=0 queue
// yields its L committed words followed by its writer stream's run.
// Each queue has one writer stream, so runs are built writers first,
// and each passes through the fault plane's CorruptPop word by word as
// soon as it is built, before any reader copies it: pop counters are
// per link, so word order within a link is all a tap observes. A ring
// of streamers has no first writer; its window declines (switch_state)
// before anything moves. Then backlogs and δ=-1 queues advance K words,
// each δ=0 queue ends holding the last L words of its contents followed
// by its writer's run, and every route appends its source's run to a
// δ=+1 queue or a boundary sink.
// A sink stamps the run as one run of exit cycles (first cycle, count).
// Runs are moved in chunks of at most macroChunk cycles, so the scratch
// stays one chunk per stream whatever K is.
//
// State restored after the window: streamers advance moves += K·routes
// (a counted loop also retires K iterations, advancing pc when it
// completes), frozen switches accrue K stalls, every processor not
// frozen by the fault plane accrues K cycles of its blocked (or idle)
// state, touched queues re-arm their start-of-cycle snapshots, and the
// chip cycle advances by K. Checkpoint digests cover all of this, so the
// equivalence suite verifies macro windows bit for bit.

const (
	// macroMinCycles is the smallest window worth the scan; below it,
	// single stepping is cheaper.
	macroMinCycles = 8
	// macroMaxCycles caps a window so edge-sink growth and the caller's
	// view of progress stay bounded even with enormous backlogs.
	macroMaxCycles = 1 << 16
)

// tryMacroStep attempts one macro window of at most budget cycles and
// returns the number of cycles advanced (0: not eligible, caller must
// single-step). Every refusal increments the MacroDisarms histogram.
func (c *Chip) tryMacroStep(budget int64) int64 {
	if budget < macroMinCycles {
		c.macroDisarms[MacroBudget]++
		return 0
	}
	fe := c.ensureFast()
	// Snapshot edge queues exactly as the top of Step would, before the
	// park set is read: a tile or router a fresh edge word wakes must be
	// classified awake, and a switch parked on a freshly refilled backlog
	// must stream, not freeze. Step then finds nothing fresh.
	fe.snapshotEdges()
	if c.faults != nil {
		// Settle the plane for the window's first cycle: TileFrozen
		// otherwise answers for the last stepped cycle, and a freeze
		// that has just ended would still read as frozen.
		c.faults.BeginCycle(c.cycle)
	}
	if !fe.procsInert() {
		c.macroDisarms[MacroExecBusy]++
		return 0
	}
	var cause MacroCause
	for _, d := range fe.due {
		if at := d.NextDue(c.cycle); at >= 0 && at-c.cycle < budget {
			budget, cause = at-c.cycle, d.cause
		}
	}
	if budget < macroMinCycles {
		c.macroDisarms[cause]++
		return 0
	}
	k, cause := fe.macroStep(budget)
	if k == 0 {
		c.macroDisarms[cause]++
	}
	return k
}

func (fe *fastEngine) macroStep(budget int64) (int64, MacroCause) {
	c := fe.c
	fe.plan = fe.plan[:0]
	fe.frozen = fe.frozen[:0]
	abort := func(cause MacroCause) (int64, MacroCause) {
		for _, idx := range fe.plan {
			fe.macroOn[idx] = false
		}
		return 0, cause
	}

	// Pass 1: classify every other engine on the chip (procsInert has
	// classified the processors), collecting the admitted streamers with
	// their route masks and the blocked switches. Only awake tiles take
	// the full test, the one at which the last attempt declined first; a
	// parked tile passes it by the invariant that lets its steps be
	// skipped, and adds its switches not halted to the frozen list.
	if id := fe.block; fe.awake.has(id) && !fe.tileFrozen(id) {
		if cause, ok := fe.admitTile(c.tiles[id]); !ok {
			return abort(cause)
		}
	}
	for wi, w := range fe.awake {
		for ; w != 0; w &= w - 1 {
			id := wi<<6 | bits.TrailingZeros64(w)
			if id == fe.block || fe.tileFrozen(id) {
				continue // tested first, or frozen: a frozen tile steps nothing
			}
			if cause, ok := fe.admitTile(c.tiles[id]); !ok {
				fe.block = id
				return abort(cause)
			}
		}
	}
	if fe.parked > 0 {
		for wi, w := range fe.awake {
			for m := ^w; m != 0; m &= m - 1 {
				id := wi<<6 | bits.TrailingZeros64(m)
				if id >= len(c.tiles) {
					break
				}
				if fe.tileFrozen(id) {
					continue
				}
				for net := 0; net < NumStaticNets; net++ {
					if idx := int32(id*NumStaticNets + net); !fe.sw[idx].sw.halted {
						fe.frozen = append(fe.frozen, idx)
					}
				}
			}
		}
	}

	// Pass 2: frozen switches must stay stalled for the whole window.
	// Register-blocked switches are stable by construction (the counter-
	// party is the tile's frozen processor); a route-blocked switch needs
	// one stably non-ready route: an empty source nothing writes, or a
	// full destination nothing drains, where "nothing" accounts for the
	// admitted streamers (final after pass 1).
	for _, idx := range fe.frozen {
		b := &fe.sw[idx]
		s := b.sw
		cp, pc := s.comp, s.pc
		switch cp.op[pc] {
		case SwRecvPC, SwNotify:
			continue
		case SwRouteV:
			if !s.loaded {
				continue
			}
		}
		lo := cp.base[pc]
		hi := lo + uint32(cp.count[pc])
		stable := false
		for i := lo; i < hi; i++ {
			sd, dd := Dir(cp.src[i]), Dir(cp.dst[i])
			if !b.srcReady(nil, sd) {
				// Empty source: csto's writer is the frozen processor,
				// edge backlogs only fill between Run calls, and an
				// internal queue only fills under an admitted streamer.
				if sd == DirP || b.src[sd].edge || !fe.macroWriterActive(b, sd) {
					stable = true
					break
				}
				continue
			}
			if !b.dstReady(nil, dd) {
				// Full destination: csti's reader is the frozen
				// processor; an internal queue only drains under an
				// admitted streamer. (Boundary sinks are never full.)
				if dd == DirP || !fe.macroReaderActive(b, dd) {
					stable = true
					break
				}
			}
		}
		if !stable {
			return abort(MacroSwitchState)
		}
	}

	// Pass 3: the window bound from per-queue flow analysis.
	k := budget
	if k > macroMaxCycles {
		k = macroMaxCycles
	}
	for _, idx := range fe.plan {
		b := &fe.sw[idx]
		s := b.sw
		cp, pc := s.comp, s.pc
		if op := cp.op[pc]; op == SwRouteN || op == SwRouteV {
			if r := int64(s.remaining); r < k {
				k = r
			}
		}
		lo := cp.base[pc]
		hi := lo + uint32(cp.count[pc])
		var seen uint8
		for i := lo; i < hi; i++ {
			sd := Dir(cp.src[i])
			if seen&(1<<sd) == 0 { // distinct sources pop once per cycle
				seen |= 1 << sd
				// δ = -1 for an edge backlog (external writers only act
				// between Run calls) and a queue no streamer writes.
				if f := b.src[sd]; f.edge || !fe.macroWriterActive(b, sd) {
					if l := int64(f.Len()); l < k {
						k = l
					}
				}
			}
			dd := Dir(cp.dst[i])
			if b.dstSink[dd] == nil && !fe.macroReaderActive(b, dd) {
				f := b.dstF[dd]
				if room := int64(f.cap - f.Len()); room < k {
					k = room
				}
			}
		}
	}
	if k < macroMinCycles {
		return abort(MacroFlowBound)
	}

	// Execute the window as run moves, in chunks of at most macroChunk
	// cycles. A ring of streamers has no first writer to build runs
	// from, so it declines before any queue or tap counter changes.
	if !fe.orderStreams() {
		return abort(MacroSwitchState)
	}
	for done := int64(0); done < k; {
		n := min(k-done, macroChunk)
		fe.moveRuns(c.cycle+done, int(n))
		done += n
	}

	// Restore per-cycle bookkeeping to what K cycles leave behind.
	for _, idx := range fe.plan {
		b := &fe.sw[idx]
		s := b.sw
		cp, pc := s.comp, s.pc
		s.moves += k * int64(cp.count[pc])
		s.movedNow = true
		s.stalledNow = false
		lo := cp.base[pc]
		hi := lo + uint32(cp.count[pc])
		for i := lo; i < hi; i++ {
			sd, dd := Dir(cp.src[i]), Dir(cp.dst[i])
			f := b.src[sd]
			f.startLen = len(f.buf) - f.head
			if f := b.dstF[dd]; f != nil {
				f.startLen = len(f.buf) - f.head
			}
		}
		if op := cp.op[pc]; op == SwRouteN || op == SwRouteV {
			s.remaining -= int(k)
			if s.remaining == 0 {
				// The last firing also retires the loop, exactly as
				// stepLoop would in that cycle.
				s.pc++
				s.loaded = false
			}
		}
		fe.macroOn[idx] = false
	}
	for _, idx := range fe.frozen {
		s := fe.sw[idx].sw
		s.stalls += k
		s.stalledNow = true
		s.movedNow = false
	}
	for id, t := range c.tiles {
		if fe.tileFrozen(id) {
			continue // a frozen tile counts nothing
		}
		// Each skipped cycle is one reference-engine step parked in the
		// same state: setState(st) K times. A parked tile's state is its
		// record's, and the record moves past the window, which accounts
		// its cycles here.
		st := fe.macroSt[id]
		if !fe.awake.has(id) {
			st = fe.park[id].st
			fe.park[id].since += k
		}
		t.exec.counts[st] += k
		t.exec.state = st
	}
	c.cycle += k
	c.macroWindows++
	c.macroCycles += k
	return k, 0
}

// MacroStats reports how often the fast engine's macro-step engaged:
// the number of multi-cycle windows executed and the total cycles they
// covered. Always zero under the reference engine. Benchmarks, the
// engagement regression tests, and the telemetry exporters use it; it is
// not part of the equivalence surface (digests and checkpoints ignore
// it, and the equivalence suites compare exports with the macro fields
// normalized out).
func (c *Chip) MacroStats() (windows, cycles int64) {
	return c.macroWindows, c.macroCycles
}

// procsInert records each awake processor's window state
// (macroProcState) in macroSt, the tile busy at the last decline first,
// and reports whether all are inert. A frozen tile's processor is, and so
// is a parked tile's: its record holds its state. It reads only bounded
// queues: a pure predicate.
func (fe *fastEngine) procsInert() bool {
	if !fe.procInert(fe.busy) {
		return false
	}
	for wi, w := range fe.awake {
		for ; w != 0; w &= w - 1 {
			id := wi<<6 | bits.TrailingZeros64(w)
			if id != fe.busy && !fe.procInert(id) {
				fe.busy = id
				return false
			}
		}
	}
	return true
}

// procInert is procsInert's test of tile id.
func (fe *fastEngine) procInert(id int) bool {
	if !fe.awake.has(id) || fe.tileFrozen(id) {
		return true
	}
	st, ok := macroProcState(fe.c.tiles[id])
	fe.macroSt[id] = st
	return ok
}

// admitTile is pass 1's test of awake tile t: live firmware settled,
// dynamic routers quiet, switches halted, blocked (frozen, verified in
// pass 2) or streaming. It appends t's streamers, with their route
// masks, to the plan and its blocked switches to the frozen list, and
// reports the cause when t keeps the window from opening.
func (fe *fastEngine) admitTile(t *Tile) (MacroCause, bool) {
	// An idle processor refills next cycle: only firmware that has
	// permanently quiesced keeps Refill (and its side effects) off the
	// window's cycles.
	if !fe.fwSettled(t) {
		return MacroFirmware, false
	}
	for _, r := range t.dyn {
		if !r.quiet() {
			return MacroDynActive, false
		}
	}
	for net := 0; net < NumStaticNets; net++ {
		idx := int32(t.id*NumStaticNets + net)
		b := &fe.sw[idx]
		switch b.next() {
		case swHalted:
			continue
		case swBlocked:
			fe.frozen = append(fe.frozen, idx)
			continue
		case swMoves:
			return MacroSwitchState, false
		}
		// Fireable: only a self-perpetuating loop free of processor
		// ports can stream; a one-shot route or a taken jump moves the
		// pc, and DirP routes couple to the frozen processor.
		cp, pc := b.sw.comp, b.sw.pc
		op := cp.op[pc]
		if cp.count[pc] == 0 || op == SwRoute || (op == SwJump && int(cp.arg[pc]) != pc) {
			return MacroSwitchState, false
		}
		var srcM, dstM uint8
		lo := cp.base[pc]
		for i := lo; i < lo+uint32(cp.count[pc]); i++ {
			srcM |= 1 << cp.src[i]
			dstM |= 1 << cp.dst[i]
		}
		if (srcM|dstM)&(1<<DirP) != 0 {
			return MacroSwitchState, false
		}
		fe.macroOn[idx] = true
		fe.macroSrcM[idx] = srcM
		fe.macroDstM[idx] = dstM
		fe.plan = append(fe.plan, idx)
	}
	return 0, true
}

// macroProcState classifies one tile processor for a macro window. It
// returns the TileState each skipped cycle accrues and whether the
// processor is provably inert: stable-idle (nothing queued, state
// already Idle), or blocked at its current micro-op on a queue whose
// counter-party is frozen for the window — replaying exactly what K
// reference steps would do (count the stall state K times, touch
// nothing). Ops that would compute, move words, complete or burn a
// multi-cycle sub-step are busy: the window aborts.
func macroProcState(t *Tile) (TileState, bool) {
	e := t.exec
	if len(e.ops) == 0 && e.head == 0 {
		if e.state != StateIdle {
			// One transitional refill step still latches StateIdle.
			return 0, false
		}
		return StateIdle, true
	}
	if e.head >= len(e.ops) {
		return 0, false // refill pending
	}
	op := &e.ops[e.head]
	st := &t.st[op.snet]
	switch op.kind {
	case opWaitDone:
		if !st.swDone.CanPop() {
			return StateStallRecv, true
		}
	case opSend:
		if !st.csto.CanPush() {
			return StateStallSend, true
		}
	case opWritePC:
		if !st.swPC.CanPush() {
			return StateStallSend, true
		}
	case opWriteCount:
		if !st.swCount.CanPush() {
			return StateStallSend, true
		}
	case opSendN:
		if op.i < op.n && !st.csto.CanPush() {
			return StateStallSend, true
		}
	case opRecv:
		if op.sub == 0 && op.i < op.n && !st.csti.CanPop() {
			return StateStallRecv, true
		}
	case opForward:
		if op.i < op.n {
			if !st.csti.CanPop() {
				return StateStallRecv, true
			}
			if !st.csto.CanPush() {
				return StateStallSend, true
			}
		}
	case opDynRecv:
		if !t.dyn[op.net].recv.CanPop() {
			return StateStallRecv, true
		}
	}
	return 0, false
}

// tileFrozen reports whether the fault plane freezes tile id for the
// window, as it would each stepped cycle: a frozen tile steps and counts
// nothing.
func (fe *fastEngine) tileFrozen(id int) bool {
	return fe.c.faults != nil && fe.c.faults.TileFrozen(id)
}

// macroWriterActive reports whether the internal queue feeding b's
// source direction d is written every window cycle — i.e. its writer,
// the neighbor's same-network switch, is an admitted streamer routing
// toward this queue. Then δ = 0 and the queue never limits the window.
func (fe *fastEngine) macroWriterActive(b *swBind, d Dir) bool {
	nb := b.tile.neighbor(d)
	widx := nb.id*NumStaticNets + int(b.net)
	return fe.macroOn[widx] && fe.macroDstM[widx]&(1<<d.Opposite()) != 0
}

// macroReaderActive is the dual for b's destination queue across d: its
// reader is the neighbor's switch sourcing from the opposite direction.
func (fe *fastEngine) macroReaderActive(b *swBind, d Dir) bool {
	nb := b.tile.neighbor(d)
	ridx := nb.id*NumStaticNets + int(b.net)
	return fe.macroOn[ridx] && fe.macroSrcM[ridx]&(1<<d.Opposite()) != 0
}

// macroStream is one admitted streamer's distinct source direction: the
// queue it pops once per window cycle, and the stream that writes that
// queue when the queue's writer is admitted too (δ = 0), else -1. Each
// queue has one writer and a switch routes each destination from one
// source, so a stream has at most one writer stream.
type macroStream struct {
	b      *swBind
	d      Dir
	writer int32
	mark   uint8 // orderStreams' walk: 1 on the current chain, 2 ordered
}

// macroChunk is the most cycles one run move covers: the run scratch
// holds one chunk per stream, and a longer window moves in chunks.
const macroChunk = 256

// orderStreams lists the window's streams, links each δ = 0 source to
// its writer stream, and orders them writers first by walking up each
// writer chain. It reports false when a chain closes on itself: a ring
// of streamers circulating words has no first writer.
func (fe *fastEngine) orderStreams() bool {
	streams := fe.streams[:0]
	for _, idx := range fe.plan {
		for d := DirN; d < DirP; d++ {
			if fe.macroSrcM[idx]&(1<<d) != 0 {
				fe.streamAt[int(idx)*int(numDirs)+int(d)] = int32(len(streams))
				streams = append(streams, macroStream{b: &fe.sw[idx], d: d, writer: -1})
			}
		}
	}
	for i := range streams {
		s := &streams[i]
		if s.b.src[s.d].edge || !fe.macroWriterActive(s.b, s.d) {
			continue
		}
		widx := s.b.tile.neighbor(s.d).id*NumStaticNets + int(s.b.net)
		cp, pc := fe.sw[widx].sw.comp, fe.sw[widx].sw.pc
		lo := cp.base[pc]
		for j := lo; j < lo+uint32(cp.count[pc]); j++ {
			if Dir(cp.dst[j]) == s.d.Opposite() {
				s.writer = fe.streamAt[widx*int(numDirs)+int(cp.src[j])]
			}
		}
	}
	fe.streams = streams
	order := fe.order[:0]
	for i := range streams {
		top := len(order)
		j := int32(i)
		for j >= 0 && streams[j].mark == 0 {
			streams[j].mark = 1
			order = append(order, j)
			j = streams[j].writer
		}
		if j >= 0 && streams[j].mark == 1 {
			return false
		}
		slices.Reverse(order[top:])
		for _, j := range order[top:] {
			streams[j].mark = 2
		}
	}
	fe.order = order
	return true
}

// moveRuns advances the window's streams n cycles from cycle at. Each
// stream's run is the n words its source yields — an edge backlog's or
// drained queue's prefix, or a δ = 0 queue's contents followed by its
// writer's run — built writers first and passed through the fault
// plane's CorruptPop word by word before any reader copies it. Pop
// counters are per link, so in-link order is all a tap can observe.
// Then sources advance, each δ = 0 queue ends holding the last L words
// of its contents followed by its writer's run (L its occupancy), and
// routes append runs to δ = +1 queues and to sinks, stamped from at.
func (fe *fastEngine) moveRuns(at int64, n int) {
	if need := len(fe.streams) * macroChunk; len(fe.runs) < need {
		fe.runs = make([]Word, need)
	}
	run := func(s int32) []Word { return fe.runs[int(s)*macroChunk:][:n] }
	fp := fe.c.faults
	for _, i := range fe.order {
		s := &fe.streams[i]
		r := run(i)
		f := s.b.src[s.d]
		if m := copy(r, f.buf[f.head:]); m < n {
			copy(r[m:], run(s.writer))
		}
		if fp != nil {
			for j, w := range r {
				r[j] = fp.CorruptPop(int(s.b.tid), s.d, int(s.b.net), w)
			}
		}
	}
	for i := range fe.streams {
		s := &fe.streams[i]
		f := s.b.src[s.d]
		if s.writer < 0 {
			f.popped = n
			f.commit()
			continue
		}
		// δ = 0: keep the last l words of contents followed by the run.
		l := len(f.buf) - f.head
		k := copy(f.buf, f.buf[f.head+min(n, l):])
		f.buf = append(f.buf[:k], run(s.writer)[n-l+k:]...)
		f.head = 0
	}
	for _, idx := range fe.plan {
		b := &fe.sw[idx]
		cp, pc := b.sw.comp, b.sw.pc
		lo := cp.base[pc]
		for j := lo; j < lo+uint32(cp.count[pc]); j++ {
			d := Dir(cp.dst[j])
			r := run(fe.streamAt[int(idx)*int(numDirs)+int(cp.src[j])])
			if sink := b.dstSink[d]; sink != nil {
				sink.pushRun(at, r)
			} else if !fe.macroReaderActive(b, d) {
				b.dstF[d].put(r)
			}
		}
	}
}
