package raw

// fifo is a bounded word queue with single-reader/single-writer two-phase
// cycle semantics. Each cycle splits into a compute phase and a commit
// phase:
//
//   - Compute: availability (CanPop) and space (CanPush) are judged against
//     a start-of-cycle snapshot, pops advance a read cursor without
//     touching the backing buffer, and pushes land in a staging buffer.
//     The reader touches only reader-owned fields (popped) and the writer
//     only writer-owned fields (pushed, staged).
//   - Commit: commit() (called once every tile has stepped) applies the
//     staged pops and pushes to the backing buffer and re-arms the
//     snapshot.
//
// This makes the outcome of a cycle independent of the order in which the
// queue's reader and writer are stepped — the hardware's lockstep: a word
// pushed this cycle is not visible to the reader until next cycle, and a
// slot freed this cycle is not visible to the writer until next cycle.
//
// A queue's first pop or push of a cycle appends it to the chip's commit
// list, which the fast engine commits instead of sweeping every queue.
// The zero value is not usable; construct with Chip.fifo.
type fifo struct {
	buf    []Word
	staged []Word
	cap    int

	// head is the index of the first committed, unconsumed word; consumed
	// words before it are reclaimed lazily (cleared when the queue drains,
	// compacted when the backing array fills), keeping commit O(1)
	// amortized instead of memmoving the queue every cycle.
	head int
	// startLen is the committed occupancy at the beginning of the cycle.
	startLen int
	// popped and pushed guard against an actor acting twice in a cycle;
	// the simulator's single-reader/single-writer discipline means at most
	// one pop and one push can legally occur per cycle.
	popped int
	pushed int

	chip *Chip
	// rd and wr are the tiles that pop and push the queue: a commit
	// wakes them if parked (see park.go). dyn is the dynamic router that
	// pops it (dynID), -1 for a static queue: a commit wakes it if asleep.
	rd, wr, dyn int32
}

// touch puts the queue on the chip's commit list at its first pop or
// push of the cycle.
func (f *fifo) touch() {
	if f.popped == 0 && len(f.staged) == 0 {
		f.chip.commits = append(f.chip.commits, f)
	}
}

// maybeCommit is the reference engine's per-cycle commit entry point: a
// branch cheap enough to inline into its sweep over every fifo on the
// chip, outlining the actual work to commit, which runs only for the few
// fifos a cycle actually touched.
func (f *fifo) maybeCommit() {
	if f.popped != 0 || len(f.staged) != 0 {
		f.commit()
	}
}

// commit applies the cycle's staged pops and pushes and re-arms the
// snapshot for the next cycle. Runs only after every tile has stepped.
func (f *fifo) commit() {
	if f.popped > 0 {
		f.head += f.popped
		f.popped = 0
		if f.head == len(f.buf) {
			f.buf = f.buf[:0]
			f.head = 0
		}
	}
	if len(f.staged) > 0 {
		f.put(f.staged)
		f.staged = f.staged[:0]
		f.pushed = 0
	}
	f.startLen = len(f.buf) - f.head
}

// put appends committed words, compacting the consumed prefix when the
// backing array is full.
func (f *fifo) put(ws []Word) {
	if len(f.buf)+len(ws) > cap(f.buf) {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, ws...)
}

// reset empties the queue and clears all staged state. Only valid between
// cycles (degraded-mode reconfiguration).
func (f *fifo) reset() {
	f.buf = f.buf[:0]
	f.staged = f.staged[:0]
	f.head = 0
	f.startLen = 0
	f.popped = 0
	f.pushed = 0
}

// CanPop reports whether the reader may pop a word this cycle.
func (f *fifo) CanPop() bool { return f.startLen-f.popped > 0 }

// CanPush reports whether the writer may push a word this cycle.
func (f *fifo) CanPush() bool { return f.startLen+f.pushed < f.cap }

// Peek returns the head word without consuming it. Valid only if CanPop.
func (f *fifo) Peek() Word { return f.buf[f.head+f.popped] }

// Pop consumes and returns the head word. The caller must have checked
// CanPop this cycle.
func (f *fifo) Pop() Word {
	if !f.CanPop() {
		panic("raw: fifo underflow (pop without CanPop)")
	}
	f.touch()
	w := f.buf[f.head+f.popped]
	f.popped++
	return w
}

// Push appends a word. The caller must have checked CanPush this cycle.
func (f *fifo) Push(w Word) {
	if !f.CanPush() {
		panic("raw: fifo overflow (push without CanPush)")
	}
	f.touch()
	f.staged = append(f.staged, w)
	f.pushed++
}

// Len returns the current (instantaneous) occupancy, counting this cycle's
// staged pops and pushes.
func (f *fifo) Len() int { return len(f.buf) - f.head - f.popped + len(f.staged) }

// poppedThisCycle reports whether the reader already consumed a word this
// cycle; a physical queue has one read port, so routers must not pop twice.
func (f *fifo) poppedThisCycle() bool { return f.popped > 0 }

// unboundedFIFO is an edge-port queue with no capacity limit and no cycle
// discipline on the external side: the testbench may push or drain any
// number of words between cycles. The on-chip side still observes the
// start-of-cycle snapshot so that external pushes land "next cycle", and
// stages its pops so that the backing buffer is immutable during the
// compute phase. Unlike bounded fifos, the external writer appends to the
// buffer directly: its first push since the last snapshot puts the queue
// on the chip's fresh list, which the top of Step snapshots (beginCycle),
// and a cycle's first pop puts it on the edge commit list.
type unboundedFIFO struct {
	buf []Word
	// head is the index of the first committed, unconsumed word. Consumed
	// words are left in place and reclaimed by an occasional amortized
	// compaction in commit — edge queues carry thousands of backlogged
	// words, and compacting on every cycle's pop would memmove the whole
	// backlog once per cycle.
	head     int
	startLen int
	popped   int
	// taken counts committed pops since construction (stream position for
	// StaticIn.Consumed).
	taken int64

	chip *Chip
	// rd is the tile that pops the queue and dyn the dynamic router (-1
	// for a static queue); fresh marks a push since the last snapshot.
	rd, dyn int32
	fresh   bool
}

func (f *unboundedFIFO) beginCycle() {
	f.startLen = len(f.buf) - f.head
	f.popped = 0
	f.fresh = false
}

// commit applies the cycle's staged pops. Runs only after every tile has
// stepped.
func (f *unboundedFIFO) commit() {
	if f.popped > 0 {
		f.head += f.popped
		f.startLen -= f.popped
		f.taken += int64(f.popped)
		f.popped = 0
		if f.head >= 64 && f.head*2 >= len(f.buf) {
			f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
			f.head = 0
		}
	}
}

func (f *unboundedFIFO) CanPop() bool { return f.startLen-f.popped > 0 }

func (f *unboundedFIFO) Peek() Word { return f.buf[f.head+f.popped] }

func (f *unboundedFIFO) Pop() Word {
	if !f.CanPop() {
		panic("raw: edge fifo underflow")
	}
	if f.popped == 0 {
		f.chip.edgePops = append(f.chip.edgePops, f)
	}
	w := f.buf[f.head+f.popped]
	f.popped++
	return w
}

// Push appends a word. External side only; never called during the compute
// phase.
func (f *unboundedFIFO) Push(w Word) {
	f.buf = append(f.buf, w)
	if !f.fresh {
		f.fresh = true
		f.chip.fresh = append(f.chip.fresh, f)
	}
}

func (f *unboundedFIFO) Len() int { return len(f.buf) - f.head - f.popped }

func (f *unboundedFIFO) poppedThisCycle() bool { return f.popped > 0 }
