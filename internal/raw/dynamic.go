package raw

import "fmt"

// The Raw chip has two identical dynamic networks (§3.3). By convention of
// this simulator, network 0 carries general processor-to-processor
// messages and network 1 is the memory network used by the data caches —
// mirroring how the Raw system dedicated one dynamic network to the memory
// protocol.
const (
	DynGeneral = 0
	DynMemory  = 1
	numDynNets = 2
)

// Dynamic-network header encoding. A message is a header word followed by
// up to MaxDynMessageWords-1 payload words. The destination may be one
// tile off-chip in either dimension, which addresses the edge devices
// (memory controllers, line cards).
//
//	bits [5:0]   destX+1 (0 .. Width+1)
//	bits [11:6]  destY+1 (0 .. Height+1)
//	bits [17:12] payload length in words (0 .. 31)
//	bits [31:18] available to software (carried untouched)
const (
	dynXShift   = 0
	dynYShift   = 6
	dynLenShift = 12
	dynCoordMax = 62
)

// DynHeader builds a dynamic-network header word addressed to tile
// (destX, destY) with payloadLen payload words following the header.
// Coordinates one step outside the mesh address edge devices.
func DynHeader(destX, destY, payloadLen int) Word {
	if destX < -1 || destX > dynCoordMax || destY < -1 || destY > dynCoordMax {
		panic(fmt.Sprintf("raw: dynamic destination (%d,%d) out of range", destX, destY))
	}
	if payloadLen < 0 || payloadLen > MaxDynMessageWords-1 {
		panic(fmt.Sprintf("raw: dynamic payload length %d out of range", payloadLen))
	}
	return Word(destX+1)<<dynXShift | Word(destY+1)<<dynYShift | Word(payloadLen)<<dynLenShift
}

// DynHeaderTag returns the header with the 14 software-defined tag bits set.
func DynHeaderTag(destX, destY, payloadLen int, tag Word) Word {
	return DynHeader(destX, destY, payloadLen) | tag<<18
}

// DecodeDynHeader extracts destination and payload length from a header.
func DecodeDynHeader(h Word) (destX, destY, payloadLen int) {
	destX = int(h>>dynXShift&0x3f) - 1
	destY = int(h>>dynYShift&0x3f) - 1
	payloadLen = int(h >> dynLenShift & 0x3f)
	return
}

// DynTag returns the 14 software-defined tag bits of a header.
func DynTag(h Word) Word { return h >> 18 }

// dynLock is one router output's worm: the input that holds the output
// and the payload words still to pass.
type dynLock struct {
	active    bool
	input     Dir
	remaining int
}

// dynRouter is a per-tile wormhole, dimension-ordered (X then Y) dynamic
// network router (§3.3). Once a header claims an output, the output is
// held by that input until the message tail passes. Both engines run
// its step; the fast engine alone puts an idle router to sleep (fast.go).
type dynRouter struct {
	tile *Tile
	net  int

	// in[DirN..DirW] receive from neighbors (edge queues at the
	// boundary, fed by attached devices); in[DirP] is the processor
	// inject queue.
	in [numDirs]*fifo
	// recv delivers messages addressed to this tile to the processor
	// (network 0) or the cache controller (network 1).
	recv *fifo
	// out is each output's queue, resolved at construction: recv for
	// DirP, the neighbor's input for internal links, nil at the
	// boundary, where dev names the attached device (nil when none:
	// words fall off the pins, like unconnected pins).
	out [numDirs]*fifo
	dev [numDirs]*dynBinding

	lock  [numDirs]dynLock
	busy  [numDirs]bool // input currently owned by some output's worm
	rr    [numDirs]Dir  // round-robin arbiter pointer per output
	moves int64

	// asleep marks a router the fast engine does not step until an
	// input it pops commits or is snapshotted (see park.go).
	asleep bool
}

// route returns the output direction dimension-ordered routing picks for a
// header at this tile.
func (r *dynRouter) route(h Word) Dir {
	dx, dy, _ := DecodeDynHeader(h)
	switch {
	case dx > r.tile.x:
		return DirE
	case dx < r.tile.x:
		return DirW
	case dy > r.tile.y:
		return DirS
	case dy < r.tile.y:
		return DirN
	}
	return DirP
}

// dstReady reports whether output d can accept a word this cycle.
// Off-chip devices always accept (deep external buffers).
func (r *dynRouter) dstReady(d Dir) bool {
	if f := r.out[d]; f != nil {
		return f.CanPush()
	}
	return true
}

func (r *dynRouter) deliver(d Dir, w Word) {
	r.moves++
	if f := r.out[d]; f != nil {
		f.Push(w)
	} else if b := r.dev[d]; b != nil {
		b.outBuf = append(b.outBuf, w)
	}
}

// step advances the router one cycle: each output moves at most one word.
func (r *dynRouter) step() {
	for out := DirN; out < numDirs; out++ {
		l := &r.lock[out]
		if l.active {
			q := r.in[l.input]
			if q.CanPop() && r.dstReady(out) {
				r.deliver(out, q.Pop())
				l.remaining--
				if l.remaining == 0 {
					l.active = false
					r.busy[l.input] = false
				}
			}
			continue
		}
		// Arbitrate a new worm for this output, round-robin over inputs.
		for k := 0; k < int(numDirs); k++ {
			inDir := Dir((int(r.rr[out]) + k) % int(numDirs))
			q := r.in[inDir]
			if r.busy[inDir] || !q.CanPop() || q.poppedThisCycle() {
				continue
			}
			h := q.Peek()
			if r.route(h) != out || !r.dstReady(out) {
				continue
			}
			r.deliver(out, q.Pop())
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

// quiet reports whether the router's next step changes nothing: it is
// asleep, or idle.
func (r *dynRouter) quiet() bool { return r.asleep || r.idle() }

// idle reports whether the router holds no worm and no input word, so
// its steps change nothing until a word arrives.
func (r *dynRouter) idle() bool {
	for d := DirN; d < numDirs; d++ {
		if r.lock[d].active || r.in[d].Len() != 0 {
			return false
		}
	}
	return true
}
