package raw

import "math"

// Event-driven tile parking.
//
// Raw's static network stalls when data is not available (§3.3), and so
// do the simulated tiles: outside macro windows most tile steps of a
// router only add to stall counters. The fast engine therefore parks a
// tile whose next step would change nothing but its counters — its
// processor blocked at its current micro-op (macroProcState) or idle
// with no or quiesced firmware, each switch halted or blocked at its
// current instruction (swBind.next), both dynamic routers asleep or
// without a worm or an input word — and skips it until something it
// observes can change:
//
//   - a bounded fifo it pops or pushes commits (every queue names its
//     reader and writer tile, and the commit list wakes both);
//   - an edge queue it reads is snapshotted after an external push;
//   - the fault plane or the tracer is due, which wakes every tile: a
//     due fault may freeze a tile or stall a link, and a tracer records
//     every tile's state;
//   - a reconfiguration or an engine switch (invalidateFast) wakes every
//     tile before the fast engine's derived state is rebuilt.
//
// The awake set (a bit per tile not parked) is the park set's source of
// truth: the step loop walks it in ascending tile order, and macro
// admission (macro.go) classifies only its tiles, reading a parked
// tile's processor state from its record — a parked tile would pass
// inert() by the same invariant that lets its steps be skipped.
//
// A skipped step would have counted the parked processor state once and
// one stall per switch not halted. That effect accrues lazily from the
// record taken when the tile parked: at wake-up, at every observation
// (Exec.StateCounts/State/Utilization, swState.Stalls, the checkpoint
// digest), and in invalidateFast. A macro window accounts every tile for
// its own cycles and moves a parked tile's record past them.
//
// Dynamic routers sleep on their own, inside awake tiles too: a router
// whose step takes its early exit (no worm, no poppable input) would
// change nothing, not even a counter, until an input it pops commits or
// is snapshotted. Every router input queue names its router (dyn), so
// those two events wake it; stepTile skips a sleeping router, and
// inert() and macro admission take it as idle without scanning its
// inputs. A sleeping router needs no accrual.
//
// The reference engine never parks and steps every tile every cycle, so
// a queue the commit list misses or a wake-up that never fires shows up
// as an engine divergence (FuzzEngineEquivalence), and the park-set
// invariant the fuzz target checks after every slice names it.

// parkRec is one parked tile's record: the processor state each skipped
// step counts, and the first cycle whose skipped step has not yet been
// accrued.
type parkRec struct {
	since int64
	st    TileState
}

// tileSet is a bitset of tile ids.
type tileSet []uint64

// fullTileSet returns the set of tiles 0..n-1.
func fullTileSet(n int) tileSet {
	s := make(tileSet, (n+63)/64)
	for id := 0; id < n; id++ {
		s.add(id)
	}
	return s
}

func (s tileSet) has(id int) bool { return s[id>>6]&(1<<(id&63)) != 0 }
func (s tileSet) add(id int)      { s[id>>6] |= 1 << (id & 63) }
func (s tileSet) del(id int)      { s[id>>6] &^= 1 << (id & 63) }

// inert reports whether tile t's next step would change only its
// counters, and the processor state that step would count.
func (fe *fastEngine) inert(t *Tile) (TileState, bool) {
	st, ok := macroProcState(t)
	if !ok || !fe.fwSettled(t) {
		return 0, false
	}
	i := t.id * NumStaticNets
	if fe.sw[i].next() > swBlocked || fe.sw[i+1].next() > swBlocked {
		return 0, false
	}
	j := t.id * numDynNets
	return st, fe.dy[j].quiet() && fe.dy[j+1].quiet()
}

// fwSettled reports whether t's processor runs no firmware next step: it
// has ops queued, or its firmware is absent or permanently quiesced, so
// an idle step calls no Refill with effects.
func (fe *fastEngine) fwSettled(t *Tile) bool {
	if e := t.exec; e.fw == nil || len(e.ops) != 0 {
		return true
	}
	q := fe.fwq[t.id]
	return q != nil && q.Quiesced()
}

// parkInert parks, at the end of a cycle, each tile whose step looked
// inert and whose next step provably is. Nothing parks after a step hook
// invalidated the engine's derived state, nor in a cycle the fault plane
// or the tracer was due: a fault or trace window usually lasts, and the
// next cycle would wake the tile again.
func (fe *fastEngine) parkInert() {
	if fe.watchAt != fe.c.cycle && !fe.c.feDirty {
		next := fe.c.cycle + 1
		for _, id := range fe.cand {
			if st, ok := fe.inert(fe.c.tiles[id]); ok {
				fe.park[id] = parkRec{since: next, st: st}
				fe.awake.del(int(id))
				fe.parked++
			}
		}
	}
	fe.cand = fe.cand[:0]
}

// accrue adds the steps parked tile id skipped before cycle now.
func (fe *fastEngine) accrue(id int32, now int64) {
	p := &fe.park[id]
	n := now - p.since
	if n <= 0 {
		return
	}
	p.since = now
	t := fe.c.tiles[id]
	t.exec.counts[p.st] += n
	t.exec.state = p.st
	for net := range t.st {
		s := &t.st[net].sw
		s.movedNow = false
		s.stalledNow = !s.halted
		if !s.halted {
			s.stalls += n
		}
	}
	fe.c.parkedCycles += n
}

// wake returns tile id to the awake set if it is parked. The commit
// loop calls it twice per queue, so the awake test is spelled out
// (tileSet.has) to keep it within the inlining budget.
func (fe *fastEngine) wake(id int32, now int64) {
	if fe.awake[id>>6]&(1<<(id&63)) == 0 {
		fe.unpark(id, now)
	}
}

// unpark accrues parked tile id up to now and returns it to the awake set.
func (fe *fastEngine) unpark(id int32, now int64) {
	fe.accrue(id, now)
	fe.awake.add(int(id))
	fe.parked--
}

// wakeAll wakes every parked tile.
func (fe *fastEngine) wakeAll(now int64) {
	for id := 0; fe.parked > 0 && id < len(fe.park); id++ {
		fe.wake(int32(id), now)
	}
}

// now returns the number of cycles every tile has completed: the chip
// cycle, or one more from the end of Step's tile loop until the cycle
// advances, where commits wake tiles and step hooks observe them.
func (fe *fastEngine) now() int64 { return max(fe.c.cycle, fe.horizon) }

// snapshotEdges snapshots the edge queues pushed since the last cycle,
// waking their reading tiles and dynamic routers.
func (fe *fastEngine) snapshotEdges() {
	c := fe.c
	for _, q := range c.fresh {
		q.beginCycle()
		if q.dyn >= 0 {
			fe.dy[q.dyn].asleep = false
		}
		if fe.parked > 0 {
			fe.wake(q.rd, c.cycle)
		}
	}
	c.fresh = c.fresh[:0]
}

// watch wakes every tile when the fault plane or the tracer is due this
// cycle (watchAt == cycle, which also keeps the cycle from parking).
// Their next due cycle is cached: both answer from fixed schedules, so no
// cycle before it is due.
func (fe *fastEngine) watch(cycle int64) {
	if cycle < fe.watchAt {
		return
	}
	fe.watchAt = math.MaxInt64
	for _, d := range fe.watched {
		if at := d.NextDue(cycle); at >= 0 && at < fe.watchAt {
			fe.watchAt = at
		}
	}
	if fe.watchAt == cycle {
		fe.wakeAll(cycle)
	}
}

// settle brings every parked tile's counters up to date; every accessor
// of a counter parking defers calls it first.
func (c *Chip) settle() {
	if fe := c.fe; fe != nil && fe.parked > 0 {
		now := fe.now()
		for id := range fe.park {
			if !fe.awake.has(id) {
				fe.accrue(int32(id), now)
			}
		}
	}
}

// ParkedTileCycles reports the tile steps the fast engine's parking has
// skipped since construction: host-engine observability beside
// MacroStats, zero under the reference engine and outside the
// equivalence surface.
func (c *Chip) ParkedTileCycles() int64 {
	c.settle()
	return c.parkedCycles
}
