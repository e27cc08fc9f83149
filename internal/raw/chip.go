package raw

import "fmt"

// Config describes a simulated Raw chip.
type Config struct {
	// Width and Height of the tile mesh. The prototype is 4x4 (§3.1);
	// larger fabrics model the multi-chip scaling of §8.5.
	Width, Height int
	// ClockHz converts cycle counts to time; the prototype target is
	// 250 MHz.
	ClockHz float64
	// Tracer, if non-nil, receives per-tile per-cycle states.
	Tracer Tracer
	// Engine selects the cycle-stepping implementation (see Engine); the
	// zero value is the reference interpreter.
	Engine Engine
}

// DefaultConfig returns the 4x4, 250 MHz prototype configuration.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, ClockHz: DefaultClockHz}
}

// DynDevice is an off-chip device attached to a boundary dynamic-network
// link (a memory controller, a line card DMA engine). Tick is called with
// the words that exited the chip on that link this cycle; the returned
// words are injected into the chip on the same link (framed messages,
// header first). NextDue (see Due) may return a negative value only
// while Tick with no arrivals returns nothing and mutates nothing, and
// the chip skips exactly those Ticks: a device is ticked on every stepped
// cycle that brings it arrivals or at which its NextDue is not negative.
type DynDevice interface {
	Due
	Tick(cycle int64, arrived []Word) (inject []Word)
}

// dynBinding is a device attached to a boundary dynamic link: the words
// that left the chip on it this cycle and the edge queue it injects into.
type dynBinding struct {
	dev    DynDevice
	outBuf []Word
	in     *fifo
}

// Chip is a simulated Raw processor.
type Chip struct {
	cfg   Config
	tiles []*Tile
	cycle int64

	// bounded and edges list the on-chip and edge queues in
	// construction order, the checkpoint digest's order.
	bounded  []*fifo
	edges    []*fifo
	bindings []*dynBinding

	// commits lists the queues popped or pushed this cycle; fresh lists
	// the edge queues injected into since their last snapshot (see
	// fifo.go). The fast engine commits and snapshots only these; the
	// reference engine sweeps every queue and clears them.
	commits []*fifo
	fresh   []*fifo

	staticIn map[[3]int]*StaticIn

	// faults, when non-nil, is the installed fault-injection schedule
	// (see FaultPlane). Consulted at the top of Step and inside the
	// static-network transfer predicates.
	faults FaultPlane

	// stepHooks are the capability-scoped observation hooks (see
	// AddStepHook): each declares its next due cycle, so macro windows
	// can cover the gaps between observations.
	stepHooks []StepHook

	// rec, when non-nil, logs external static-input pushes so the chip
	// can checkpoint by record-replay (see snapshot.go).
	rec *recorder

	// engine selects the cycle-stepping implementation; fe is the fast
	// engine's derived state (compiled bindings, macro-step scratch),
	// rebuilt on demand when feDirty (see engine.go, fast.go).
	engine  Engine
	fe      *fastEngine
	feDirty bool
	// macro-step engagement counters (see MacroStats) and the per-cause
	// disarm histogram (see MacroDisarms).
	macroWindows int64
	macroCycles  int64
	macroDisarms [NumMacroCauses]int64
	// parkedCycles counts the tile steps parking skipped (see park.go).
	parkedCycles int64

	// fifoSlab backs every bounded fifo on the chip in one contiguous
	// allocation (index-addressed ring buffers): the reference engine's
	// commit sweep and the fast engine's bindings then walk adjacent memory
	// instead of pointer-chasing 400+ individual allocations. Sized
	// exactly in NewChip; c.fifo falls back to individual allocation if
	// the estimate is ever short (never, by construction), because
	// growing the slab would move live pointers.
	fifoSlab []fifo
	// words is the unused tail of the arena fifo ring buffers are carved
	// from (one allocation per 4,096 words instead of one per queue).
	words []Word
}

// NewChip builds a chip. Every boundary static link gets an input queue
// (push via StaticIn) and an output sink (drain via StaticOut); dynamic
// boundary links are inert until a DynDevice is attached.
func NewChip(cfg Config) *Chip {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("raw: chip must have positive dimensions")
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = DefaultClockHz
	}
	c := &Chip{
		cfg:      cfg,
		engine:   cfg.Engine,
		staticIn: make(map[[3]int]*StaticIn),
	}
	n := cfg.Width * cfg.Height
	// Pre-size the fifo slab: per tile, 5 processor<->switch queues per
	// static net plus recv and the inject queue per dynamic net; per
	// internal directed link, one input queue per network.
	perTile := NumStaticNets*5 + numDynNets*2
	internalLinks := 2 * ((cfg.Width-1)*cfg.Height + cfg.Width*(cfg.Height-1))
	c.fifoSlab = make([]fifo, 0, n*perTile+internalLinks*(NumStaticNets+numDynNets))
	c.tiles = make([]*Tile, n)
	for id := 0; id < n; id++ {
		t := &Tile{
			chip: c,
			id:   id,
			x:    id % cfg.Width,
			y:    id / cfg.Width,
		}
		for net := 0; net < NumStaticNets; net++ {
			st := &t.st[net]
			st.sw.tile = t
			st.sw.net = net
			st.csto = c.fifo(2, id, id)
			st.csti = c.fifo(4, id, id)
			st.swPC = c.fifo(1, id, id)
			st.swDone = c.fifo(1, id, id)
			st.swCount = c.fifo(1, id, id)
		}
		t.cache = newDCache(t)
		t.exec = &Exec{tile: t}
		for net := 0; net < numDynNets; net++ {
			r := &dynRouter{tile: t, net: net}
			r.recv = c.fifo(64, id, id)
			r.out[DirP] = r.recv
			r.in[DirP] = c.fifo(4, id, id)
			t.dyn[net] = r
		}
		c.tiles[id] = t
	}
	// Wire network input queues. An internal dynamic input is also the
	// neighbor router's output toward this tile, and every dynamic input
	// names the router that pops it.
	for _, t := range c.tiles {
		for d := DirN; d < DirP; d++ {
			if t.Boundary(d) {
				for net := 0; net < NumStaticNets; net++ {
					q := c.edgeFifo(t.id)
					t.st[net].in[d] = q
					c.staticIn[[3]int{t.id, int(d), net}] = &StaticIn{q: q, chip: c, tile: t.id, dir: d, net: net}
					t.st[net].edgeOut[d] = &EdgeSink{}
				}
				for net := 0; net < numDynNets; net++ {
					t.dyn[net].in[d] = c.edgeFifo(t.id)
				}
			} else {
				nb := t.neighbor(d)
				for net := 0; net < NumStaticNets; net++ {
					t.st[net].in[d] = c.fifo(2, t.id, nb.id)
				}
				for net := 0; net < numDynNets; net++ {
					q := c.fifo(2, t.id, nb.id)
					t.dyn[net].in[d] = q
					nb.dyn[net].out[d.Opposite()] = q
				}
			}
		}
		for _, r := range t.dyn {
			for _, q := range r.in {
				q.dyn = r
			}
		}
	}
	return c
}

// fifo allocates a bounded queue popped by tile rd and pushed by tile wr.
// Its backing array is carved from a shared word arena and is twice the
// logical capacity so the lazy head cursor has slack: by the time the
// physical array is full, at least half of it is consumed prefix, so
// each element is memmoved at most once, and the queue never outgrows
// its carve.
func (c *Chip) fifo(capacity, rd, wr int) *fifo {
	if len(c.words) < 2*capacity {
		c.words = make([]Word, 4096)
	}
	buf := c.words[: 0 : 2*capacity]
	c.words = c.words[2*capacity:]
	q := fifo{buf: buf, cap: capacity, chip: c, rd: int32(rd), wr: int32(wr)}
	var f *fifo
	if len(c.fifoSlab) < cap(c.fifoSlab) {
		c.fifoSlab = append(c.fifoSlab, q)
		f = &c.fifoSlab[len(c.fifoSlab)-1]
	} else {
		f = new(fifo)
		*f = q
	}
	c.bounded = append(c.bounded, f)
	return f
}

// edgeFifo allocates a boundary input queue read by tile rd (see fifo).
// It has no on-chip writer, so its wr is its reader: the commit loop
// wakes both ends of every queue it commits.
func (c *Chip) edgeFifo(rd int) *fifo {
	f := &fifo{chip: c, rd: int32(rd), wr: int32(rd), edge: true}
	c.edges = append(c.edges, f)
	return f
}

// Tile returns tile id (row-major).
func (c *Chip) Tile(id int) *Tile { return c.tiles[id] }

// TileAt returns the tile at mesh coordinates (x, y).
func (c *Chip) TileAt(x, y int) *Tile { return c.tiles[y*c.cfg.Width+x] }

// NumTiles returns Width*Height.
func (c *Chip) NumTiles() int { return len(c.tiles) }

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Cycle returns the number of cycles simulated so far.
func (c *Chip) Cycle() int64 { return c.cycle }

// Seconds converts a cycle count to wall-clock seconds at the configured
// clock rate.
func (c *Chip) Seconds(cycles int64) float64 { return float64(cycles) / c.cfg.ClockHz }

// StaticIn returns the external input handle of a boundary link on static
// network 0.
func (c *Chip) StaticIn(tileID int, d Dir) *StaticIn { return c.StaticInOn(0, tileID, d) }

// StaticInOn returns the external input handle of a boundary link on the
// chosen static network.
func (c *Chip) StaticInOn(net, tileID int, d Dir) *StaticIn {
	in, ok := c.staticIn[[3]int{tileID, int(d), net}]
	if !ok {
		panic(fmt.Sprintf("raw: tile %d has no boundary static input to the %s", tileID, d))
	}
	return in
}

// StaticOut returns the external output sink of a boundary link on static
// network 0.
func (c *Chip) StaticOut(tileID int, d Dir) *EdgeSink { return c.StaticOutOn(0, tileID, d) }

// StaticOutOn returns the external output sink on the chosen static
// network.
func (c *Chip) StaticOutOn(net, tileID int, d Dir) *EdgeSink {
	t := c.tiles[tileID]
	if !t.Boundary(d) {
		panic(fmt.Sprintf("raw: tile %d side %s is not a chip boundary", tileID, d))
	}
	return t.st[net].edgeOut[d]
}

// AttachDynDevice connects an off-chip device to a boundary dynamic link.
func (c *Chip) AttachDynDevice(tileID int, d Dir, net int, dev DynDevice) {
	t := c.tiles[tileID]
	if !t.Boundary(d) {
		panic(fmt.Sprintf("raw: tile %d side %s is not a chip boundary", tileID, d))
	}
	c.invalidateFast()
	r := t.dyn[net]
	b := &dynBinding{dev: dev, in: r.in[d]}
	c.bindings = append(c.bindings, b)
	r.dev[d] = b
}

// Step simulates one clock cycle in two phases. Compute: every tile (its
// processor, static switches, and dynamic routers) steps against the
// previous cycle's committed queue state, staging its pops and pushes in
// per-queue buffers. Commit: once every tile has stepped, the staged
// operations are applied. Because compute-phase reads never observe
// compute-phase writes, the cycle's outcome is independent of tile
// stepping order — the simulated tiles advance in lockstep, as on the
// hardware. The reference engine sweeps every queue; the fast engine
// commits only the queues the cycle touched and skips parked tiles (see
// fastEngine.step).
func (c *Chip) Step() {
	// Resolve fast-engine bindings before anything moves.
	var fe *fastEngine
	if c.engine == EngineFast {
		fe = c.ensureFast()
	}
	// Advance the fault schedule first: the per-cycle fault state must be
	// settled before any tile consults it.
	if c.faults != nil {
		c.faults.BeginCycle(c.cycle)
	}
	if fe != nil {
		fe.step()
	} else {
		// Snapshot edge queues so words injected since the last cycle
		// become visible this cycle. (Bounded fifos re-arm their
		// snapshot in commit; they have no external writers.)
		for _, q := range c.edges {
			q.snapshot()
		}
		for _, t := range c.tiles {
			if c.faults != nil && c.faults.TileFrozen(t.id) {
				continue
			}
			t.step()
		}
		for _, f := range c.bounded {
			f.maybeCommit()
		}
		for _, q := range c.edges {
			q.maybeCommit()
		}
		c.commits, c.fresh = c.commits[:0], c.fresh[:0]
	}
	// Devices tick after the cycle's commits, so no injection lands
	// between an edge queue's snapshot and its commit.
	for _, b := range c.bindings {
		arrived := b.outBuf
		if len(arrived) == 0 && b.dev.NextDue(c.cycle) < 0 {
			continue // an idle device's Tick changes nothing
		}
		b.outBuf = nil
		for _, w := range b.dev.Tick(c.cycle, arrived) {
			b.in.inject(w)
		}
	}
	for _, h := range c.stepHooks {
		h.Tick(c.cycle)
	}
	if c.cfg.Tracer != nil {
		for _, t := range c.tiles {
			// Combined tile state — the utilization semantics of the
			// paper's Figure 7-3: a tile is busy when its processor or
			// its switch moves work, blocked (gray) when either wants to
			// move work and cannot, idle otherwise.
			st := t.exec.state
			moved := t.st[0].sw.movedNow || t.st[1].sw.movedNow
			stalled := t.st[0].sw.stalledNow || t.st[1].sw.stalledNow
			switch {
			case moved || st == StateRun:
				st = StateRun
			case st.Blocked():
				// keep the processor's stall flavor
			case stalled:
				st = StateStallRecv
			}
			c.cfg.Tracer.Record(c.cycle, t.id, st)
		}
	}
	if fe != nil {
		fe.parkInert()
	}
	c.cycle++
}

// Run simulates n cycles. Under the fast engine, eligible steady-state
// streaming windows advance many cycles per dispatch (see macro.go);
// RunUntil never macro-steps, since its predicate observes every cycle.
func (c *Chip) Run(n int64) {
	if c.engine == EngineFast {
		for done := int64(0); done < n; {
			if k := c.tryMacroStep(n - done); k > 0 {
				done += k
				continue
			}
			c.Step()
			done++
		}
		return
	}
	for i := int64(0); i < n; i++ {
		c.Step()
	}
}

// RunUntil steps the chip until pred returns true or the cycle budget is
// exhausted; it reports whether pred was satisfied.
func (c *Chip) RunUntil(pred func() bool, budget int64) bool {
	for i := int64(0); i < budget; i++ {
		if pred() {
			return true
		}
		c.Step()
	}
	return pred()
}
