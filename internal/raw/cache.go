package raw

// Memory-network protocol spoken between the per-tile data caches and the
// edge memory controllers (package internal/mem implements the controller
// side). All messages travel on dynamic network DynMemory.
//
// Read request (cache -> controller):
//
//	header  DynHeader(offchip, len=2)
//	cmd     MemCmdRead<<24 | tileID
//	addr    line-aligned word address
//
// Write-back (cache -> controller):
//
//	header  DynHeader(offchip, len=2+CacheLineWords)
//	cmd     MemCmdWrite<<24 | tileID
//	addr    line-aligned word address
//	data    CacheLineWords words
//
// Read reply (controller -> cache):
//
//	header  DynHeader(tileX, tileY, len=1+CacheLineWords)
//	addr    line-aligned word address
//	data    CacheLineWords words
const (
	MemCmdRead  = 0
	MemCmdWrite = 1
)

// MemCmd builds the command word of a memory-network request.
func MemCmd(op int, tileID int) Word { return Word(op)<<24 | Word(tileID) }

// DecodeMemCmd splits a memory-network command word.
func DecodeMemCmd(w Word) (op int, tileID int) {
	return int(w >> 24), int(w & 0xffffff)
}

const (
	cacheWays     = 2
	cacheSets     = DCacheWords / CacheLineWords / cacheWays // 512
	lineAddrMask  = ^Word(CacheLineWords - 1)
	lineOffMask   = Word(CacheLineWords - 1)
	setIndexShift = 3 // log2(CacheLineWords)
)

type cacheLine struct {
	valid bool
	dirty bool
	tag   Word // line-aligned word address
	data  [CacheLineWords]Word
}

type cachePhase uint8

const (
	cpIdle cachePhase = iota
	cpHitWait
	cpSend // injecting request (and write-back) words
	cpWaitReply
)

// dcache is the per-tile data cache model (§3.2): 8,192 words, 2-way
// set-associative, 32-byte lines, 3-cycle hit latency, write-back with
// write-allocate. The cache has a single port (§4.4: "each tile's data
// cache only has one port") and at most one outstanding miss.
type dcache struct {
	tile *Tile
	// sets is allocated at the first access: most tiles never use it.
	sets *[cacheSets][cacheWays]cacheLine
	mru  [cacheSets]uint8 // most recently used way per set

	phase   cachePhase
	counter int
	pending struct {
		addr    Word
		isWrite bool
		wval    Word
	}
	way   int    // the way the pending access hit, or reserved for its fill
	drop  bool   // an invalidation covered the pending line: finish drops it
	sendQ []Word // request/write-back words awaiting injection
	gotQ  []Word // reply words received so far

	hits   int64
	misses int64
}

func newDCache(t *Tile) *dcache { return &dcache{tile: t} }

func (c *dcache) setIndex(addr Word) int {
	return int(addr>>setIndexShift) % cacheSets
}

// lookup returns the way holding addr's line, or -1.
func (c *dcache) lookup(addr Word) int {
	if c.sets == nil {
		return -1
	}
	line := addr & lineAddrMask
	set := &c.sets[c.setIndex(addr)]
	for w := range set {
		if set[w].valid && set[w].tag == line {
			return w
		}
	}
	return -1
}

// access advances one cycle of a cache transaction. It returns done=true
// with the read value when the access completes; until then state reports
// how the cycle should be accounted (Run for pipelined hit cycles,
// StallCache while a miss is outstanding).
func (c *dcache) access(addr Word, isWrite bool, wval Word) (done bool, val Word, state TileState) {
	switch c.phase {
	case cpIdle:
		c.pending.addr = addr
		c.pending.isWrite = isWrite
		c.pending.wval = wval
		c.drop = false
		if w := c.lookup(addr); w >= 0 {
			c.way = w
			c.hits++
			c.phase = cpHitWait
			c.counter = CacheHitCycles - 1 // this cycle counts as the first
			return false, 0, StateRun
		}
		c.misses++
		if c.sets == nil {
			c.sets = new([cacheSets][cacheWays]cacheLine)
		}
		c.buildMiss(addr)
		c.phase = cpSend
		return false, 0, StateStallCache

	case cpHitWait:
		c.counter--
		if c.counter > 0 {
			return false, 0, StateRun
		}
		return c.finish()

	case cpSend:
		inj := c.tile.dyn[DynMemory].in[DirP].(*fifo)
		if inj.CanPush() {
			inj.Push(c.sendQ[0])
			c.sendQ = c.sendQ[1:]
			if len(c.sendQ) == 0 {
				c.phase = cpWaitReply
				c.gotQ = c.gotQ[:0]
			}
		}
		return false, 0, StateStallCache

	case cpWaitReply:
		rq := c.tile.dyn[DynMemory].recv
		if rq.CanPop() {
			c.gotQ = append(c.gotQ, rq.Pop())
		}
		// header + addr + line words
		if len(c.gotQ) == 2+CacheLineWords {
			c.fill(c.gotQ[1], c.gotQ[2:])
			c.phase = cpHitWait
			c.counter = CacheHitCycles
		}
		return false, 0, StateStallCache
	}
	panic("raw: bad cache phase")
}

// finish applies the pending read or write to the way the access hit or
// filled; if an invalidation covered it since, the line is then dropped.
func (c *dcache) finish() (bool, Word, TileState) {
	si := c.setIndex(c.pending.addr)
	ln := &c.sets[si][c.way]
	c.mru[si] = uint8(c.way)
	off := c.pending.addr & lineOffMask
	var v Word
	if c.pending.isWrite {
		ln.data[off] = c.pending.wval
		ln.dirty = true
	} else {
		v = ln.data[off]
	}
	if c.drop {
		ln.valid = false
	}
	c.phase = cpIdle
	return true, v, StateRun
}

// buildMiss selects a victim, queues an eventual write-back, and queues the
// line read request.
func (c *dcache) buildMiss(addr Word) {
	line := addr & lineAddrMask
	si := c.setIndex(addr)
	set := &c.sets[si]
	victim := int(1 - c.mru[si]) // evict the LRU way
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
	}
	v := &set[victim]
	c.sendQ = c.sendQ[:0]
	t := c.tile
	if v.valid && v.dirty {
		c.sendQ = append(c.sendQ,
			DynHeader(t.chip.cfg.Width, t.y, 2+CacheLineWords),
			MemCmd(MemCmdWrite, t.id),
			v.tag)
		c.sendQ = append(c.sendQ, v.data[:]...)
	}
	c.sendQ = append(c.sendQ,
		DynHeader(t.chip.cfg.Width, t.y, 2),
		MemCmd(MemCmdRead, t.id),
		line)
	v.valid = false
	v.tag = line
	c.mru[si] = uint8(victim)
	c.way = victim
}

// fill installs a returned line into the way reserved by buildMiss.
func (c *dcache) fill(addr Word, data []Word) {
	ln := &c.sets[c.setIndex(addr)][c.way]
	if ln.tag != addr || ln.valid {
		panic("raw: cache fill with no reserved way")
	}
	copy(ln.data[:], data)
	ln.valid = true
	ln.dirty = false
}

// invalidate drops every line holding a word of [addr, addr+n) without
// write-back. An access in flight on one (a hit, or a miss whose reply
// may predate the rewrite) completes on the words it holds and drops the
// line, and any word it stores, when it does. A write-back already
// queued still goes out.
func (c *dcache) invalidate(addr Word, n int) {
	sets := c.sets
	if sets == nil || n <= 0 {
		return
	}
	first := addr & lineAddrMask
	span := addr - first + Word(n) // words from first to the range's end
	for s := range sets {
		for w := range sets[s] {
			if ln := &sets[s][w]; ln.tag-first < span {
				ln.valid = false
			}
		}
	}
	// An idle cache's pending access is over; the next one clears drop.
	if c.pending.addr&lineAddrMask-first < span {
		c.drop = true
	}
}

// Hits returns the number of cache hits observed.
func (c *dcache) Hits() int64 { return c.hits }

// Misses returns the number of cache misses observed.
func (c *dcache) Misses() int64 { return c.misses }
