package raw

// fifo is the chip's one word queue, with single-reader/single-writer
// two-phase cycle semantics. Each cycle splits into a compute phase and
// a commit phase:
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
// An edge queue is a boundary static or dynamic input: the same blocking
// queue, backed by the large off-chip buffering the paper assumes (§4.4).
// It has no capacity bound and no on-chip writer; its external writer
// (StaticIn.Push, an attached device) appends committed words between
// cycles (inject). Its first injection since the last snapshot puts it
// on the chip's fresh list, and the snapshot at the top of the next step
// makes the words visible; until then commit leaves them out of the
// snapshot.
//
// A queue's first pop or push of a cycle appends it to the chip's commit
// list, which the fast engine commits instead of sweeping every queue.
// The zero value is not usable; construct with Chip.fifo or Chip.edgeFifo.
type fifo struct {
	buf    []Word
	staged []Word
	cap    int

	// head is the index of the first committed, unconsumed word; consumed
	// words before it are reclaimed lazily (cleared when the queue drains,
	// compacted when the backing array fills), keeping commit O(1)
	// amortized instead of memmoving the queue every cycle.
	head int
	// startLen is the committed occupancy visible at the beginning of the
	// cycle.
	startLen int
	// popped and pushed guard against an actor acting twice in a cycle;
	// the simulator's single-reader/single-writer discipline means at most
	// one pop and one push can legally occur per cycle. An edge queue
	// stages no pushes, so its pushed counts every word appended since
	// construction instead: its stream position is pushed minus held
	// (consumed).
	popped int
	pushed int

	chip *Chip
	// dyn is the dynamic router that pops the queue, nil for a static
	// queue: a commit or snapshot wakes it if asleep (see park.go).
	dyn *dynRouter
	// rd and wr are the tiles that pop and push the queue: a commit
	// wakes them if parked. An edge queue's wr is its reader.
	rd, wr int32
	// edge marks a boundary input queue; fresh marks one injected into
	// since its last snapshot.
	edge, fresh bool
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
// The snapshot moves by the cycle's own pops and pushes, so an edge
// queue's words appended since its last snapshot stay invisible.
func (f *fifo) commit() {
	f.startLen += len(f.staged) - f.popped
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

// inject is an edge queue's external writer: it appends w to the
// backlog between cycles, visible from the next snapshot. An edge
// backlog has no bound and need never drain, so when its backing array
// is full the consumed prefix is compacted only if it is at least half
// the array, moving each word at most once; otherwise append grows it.
func (f *fifo) inject(w Word) {
	if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, w)
	f.pushed++
	if !f.fresh {
		f.fresh = true
		f.chip.fresh = append(f.chip.fresh, f)
	}
}

// snapshot makes an edge queue's injected words visible to its reader.
// Runs between cycles.
func (f *fifo) snapshot() {
	f.startLen = len(f.buf) - f.head
	f.fresh = false
}

// consumed returns how many words an edge queue's reader has popped and
// committed since construction.
func (f *fifo) consumed() int64 { return int64(f.pushed - (len(f.buf) - f.head)) }

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
