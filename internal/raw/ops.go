package raw

// Firmware is the tile processor programming model used by the router: a
// deterministic generator of micro-ops with one entry point. When the
// executor's queue runs empty it calls Step with Refill exactly once per
// cycle; firmware enqueues the next batch of operations (or nothing,
// idling the tile this cycle). A micro-op may carry a step code (OnDone,
// Then): in the cycle that op completes the executor calls Step with
// that code, and the ops the step enqueues run after the rest of the
// batch. A tile's whole state is therefore its queued ops, which are
// plain data, and its firmware's own fields.
//
// Micro-ops carry the cycle costs the thesis states for the corresponding
// instruction sequences: register-mapped network sends and moves cost one
// cycle per word, buffering a word from the network into local data memory
// costs two cycles (§4.4), cache hits are 3 cycles, and control decisions
// cost one cycle each (a branch uses one issue slot, §4.4).
type Firmware interface {
	Step(e *Exec, s Step)
}

// Step is a firmware's step code: Refill, or a continuation the firmware
// numbers itself and names on a micro-op.
type Step uint8

// Refill is the step the executor passes when its queue runs empty. An op
// whose step is Refill completes without calling the firmware.
const Refill Step = 0

// FirmwareFunc adapts a function to the Firmware interface.
type FirmwareFunc func(e *Exec, s Step)

// Step calls f.
func (f FirmwareFunc) Step(e *Exec, s Step) { f(e, s) }

type opKind uint8

const (
	opCompute opKind = iota
	opSend           // one word to $csto
	opRecv           // n words from $csti at cost cycles/word (buffer to memory = 2)
	opForward        // n words $csti -> $csto at 1 cycle/word
	opSendN          // n words to $csto at 1 cycle/word: words, then zeros
	opWritePC
	opWriteCount
	opWaitDone
	opDynSend
	opDynRecv
	opCacheRead
	opCacheWrite
)

// microOp is one queued micro-op, plain data: receives land in dst or
// words, sends read val or words, and step names the firmware step that
// runs in the cycle the op completes.
type microOp struct {
	kind opKind
	step Step
	n    int
	cost int // per-word cost for opRecv
	net  int // dynamic network for opDynSend/opDynRecv
	snet int // static network for the port ops (0 or 1)

	val   Word   // the word sent or written (cache data for opCacheWrite)
	addr  Word   // cache address for opCacheRead/opCacheWrite
	dst   *Word  // where a one-word receive lands (nil discards)
	words []Word // receive destination, SendN source or DynSend message

	// in-flight state
	i   int
	sub int // sub-word cycle counter for multi-cycle-per-word ops
}

// land stores the op's next received word: in dst for a one-word op,
// else in words while it has room. Words past len(words) are discarded.
func (op *microOp) land(w Word) {
	if op.dst != nil {
		*op.dst = w
	} else if op.i < len(op.words) {
		op.words[op.i] = w
	}
	op.i++
}

// Exec is the micro-op executor of one tile processor.
type Exec struct {
	tile *Tile
	fw   Firmware

	ops  []microOp
	head int

	state TileState

	// Cycle accounting by state, for the Figure 7-3 utilization study.
	counts [5]int64
}

// SetFirmware installs the tile's firmware.
func (e *Exec) SetFirmware(fw Firmware) {
	e.tile.chip.invalidateFast()
	e.fw = fw
}

// Reset discards all queued and in-flight micro-ops. The next step refills
// from the firmware as if freshly started. Used by the router's
// degraded-mode reconfiguration; must be called between cycles.
func (e *Exec) Reset() {
	e.tile.chip.invalidateFast()
	e.ops = e.ops[:0]
	e.head = 0
}

// State returns the state the processor was in during the last cycle.
func (e *Exec) State() TileState {
	e.tile.chip.settle()
	return e.state
}

// StateCounts returns cumulative cycles spent in each TileState.
func (e *Exec) StateCounts() (counts [5]int64) {
	e.tile.chip.settle()
	return e.counts
}

// Tile returns the tile this executor belongs to.
func (e *Exec) Tile() *Tile { return e.tile }

// Utilization returns the fraction of elapsed cycles spent in StateRun.
func (e *Exec) Utilization() float64 {
	e.tile.chip.settle()
	var tot int64
	for _, c := range e.counts {
		tot += c
	}
	if tot == 0 {
		return 0
	}
	return float64(e.counts[StateRun]) / float64(tot)
}

func (e *Exec) push(op microOp) { e.ops = append(e.ops, op) }

// OnDone makes s the step of the micro-op enqueued last: the firmware runs
// it in the cycle that op completes, after its last word has landed, at
// no cycle of its own.
func (e *Exec) OnDone(s Step) { e.ops[len(e.ops)-1].step = s }

// Compute enqueues n cycles of pure computation.
func (e *Exec) Compute(n int) {
	if n > 0 {
		e.push(microOp{kind: opCompute, n: n})
	}
}

// Send enqueues a one-cycle send of w to the switch ($csto).
func (e *Exec) Send(w Word) { e.push(microOp{kind: opSend, val: w}) }

// SendOn is Send on a chosen static network ($csto2 for net 1).
func (e *Exec) SendOn(net int, w Word) { e.push(microOp{kind: opSend, snet: net, val: w}) }

// Recv enqueues a one-cycle receive from the switch ($csti) into *dst;
// nil discards the word. It steps exactly as RecvN(1, 1, ...).
func (e *Exec) Recv(dst *Word) { e.RecvOn(0, dst) }

// RecvOn is Recv on a chosen static network ($csti2 for net 1).
func (e *Exec) RecvOn(net int, dst *Word) {
	e.push(microOp{kind: opRecv, snet: net, n: 1, cost: 1, dst: dst})
}

// Forward enqueues an n-word network-to-network copy ($csti -> $csto) at
// one cycle per word: the `move $csto,$csti` inner loop of the streaming
// fast path.
func (e *Exec) Forward(n int) { e.push(microOp{kind: opForward, n: n}) }

// RecvN enqueues an n-word receive at cost cycles per word into dst; cost
// 2 models buffering into local data memory (§4.4), cost 1 a
// register-target receive. Words past len(dst) are discarded.
func (e *Exec) RecvN(n, cost int, dst []Word) {
	e.push(microOp{kind: opRecv, n: n, cost: cost, words: dst})
}

// SendN enqueues an n-word send at one cycle per word: src, then zeros
// (the padding that keeps a granted stream its quantum's length).
func (e *Exec) SendN(n int, src []Word) {
	e.push(microOp{kind: opSendN, n: n, words: src})
}

// WriteSwitchPC enqueues a one-cycle write of pc to the switch program
// counter.
func (e *Exec) WriteSwitchPC(pc Word) { e.push(microOp{kind: opWritePC, val: pc}) }

// WriteSwitchCount enqueues a one-cycle write of n to the switch
// loop-count register consumed by SwRouteV.
func (e *Exec) WriteSwitchCount(n Word) { e.push(microOp{kind: opWriteCount, val: n}) }

// WaitSwitchDone enqueues a blocking read of the switch-done register
// into *dst; nil discards the word.
func (e *Exec) WaitSwitchDone(dst *Word) { e.WaitSwitchDoneOn(0, dst) }

// WriteSwitchPCOn / WriteSwitchCountOn / WaitSwitchDoneOn are the network-
// indexed variants for the second static switch.
func (e *Exec) WriteSwitchPCOn(net int, pc Word) {
	e.push(microOp{kind: opWritePC, snet: net, val: pc})
}

// WriteSwitchCountOn writes the chosen network's loop-count register.
func (e *Exec) WriteSwitchCountOn(net int, n Word) {
	e.push(microOp{kind: opWriteCount, snet: net, val: n})
}

// WaitSwitchDoneOn blocks on the chosen network's done register.
func (e *Exec) WaitSwitchDoneOn(net int, dst *Word) {
	e.push(microOp{kind: opWaitDone, snet: net, dst: dst})
}

// DynSend enqueues injection of the framed message msg (header first) on
// dynamic network net, one cycle per word.
func (e *Exec) DynSend(net int, msg []Word) {
	e.push(microOp{kind: opDynSend, net: net, words: msg})
}

// DynRecv enqueues reception of len(dst) words from dynamic network net's
// delivery queue into dst, one cycle per word.
func (e *Exec) DynRecv(net int, dst []Word) {
	e.push(microOp{kind: opDynRecv, net: net, words: dst})
}

// CacheRead enqueues a data-cache read of addr into *dst (3-cycle hit,
// miss costs a DRAM round trip over the memory network); nil discards the
// word.
func (e *Exec) CacheRead(addr Word, dst *Word) {
	e.push(microOp{kind: opCacheRead, addr: addr, dst: dst})
}

// CacheWrite enqueues a data-cache write of val to addr.
func (e *Exec) CacheWrite(addr, val Word) {
	e.push(microOp{kind: opCacheWrite, addr: addr, val: val})
}

// Then enqueues a one-cycle control decision that runs step s in its
// cycle; s typically inspects received values and enqueues the next ops.
func (e *Exec) Then(s Step) { e.push(microOp{kind: opCompute, n: 1, step: s}) }

// step advances the processor one cycle.
func (e *Exec) step() {
	if e.head >= len(e.ops) {
		e.ops = e.ops[:0]
		e.head = 0
		if e.fw != nil {
			e.fw.Step(e, Refill)
		}
		if len(e.ops) == 0 {
			e.setState(StateIdle)
			return
		}
	}
	op := &e.ops[e.head]
	done, st := e.stepOp(op)
	if done && op.step != Refill {
		e.fw.Step(e, op.step)
	}
	e.setState(st)
	if done {
		e.head++
	}
}

func (e *Exec) setState(s TileState) {
	e.state = s
	e.counts[s]++
}

func (e *Exec) stepOp(op *microOp) (done bool, st TileState) {
	t := e.tile
	switch op.kind {
	case opCompute:
		op.n--
		return op.n <= 0, StateRun

	case opSend:
		if !t.st[op.snet].csto.CanPush() {
			return false, StateStallSend
		}
		t.st[op.snet].csto.Push(op.val)
		return true, StateRun

	case opRecv:
		if op.n <= 0 {
			return true, StateRun
		}
		if op.sub > 0 { // extra cycles per word (e.g. the store of a 2-cycle buffer step)
			op.sub--
			return op.sub == 0 && op.i >= op.n, StateRun
		}
		if !t.st[op.snet].csti.CanPop() {
			return false, StateStallRecv
		}
		op.land(t.st[op.snet].csti.Pop())
		op.sub = op.cost - 1
		return op.sub == 0 && op.i >= op.n, StateRun

	case opForward:
		if op.n <= 0 {
			return true, StateRun
		}
		if !t.st[op.snet].csti.CanPop() {
			return false, StateStallRecv
		}
		if !t.st[op.snet].csto.CanPush() {
			return false, StateStallSend
		}
		t.st[op.snet].csto.Push(t.st[op.snet].csti.Pop())
		op.i++
		return op.i >= op.n, StateRun

	case opSendN:
		if op.n <= 0 {
			return true, StateRun
		}
		if !t.st[op.snet].csto.CanPush() {
			return false, StateStallSend
		}
		var w Word // padding past the source
		if op.i < len(op.words) {
			w = op.words[op.i]
		}
		t.st[op.snet].csto.Push(w)
		op.i++
		return op.i >= op.n, StateRun

	case opWritePC:
		if !t.st[op.snet].swPC.CanPush() {
			return false, StateStallSend
		}
		t.st[op.snet].swPC.Push(op.val)
		return true, StateRun

	case opWriteCount:
		if !t.st[op.snet].swCount.CanPush() {
			return false, StateStallSend
		}
		t.st[op.snet].swCount.Push(op.val)
		return true, StateRun

	case opWaitDone:
		if !t.st[op.snet].swDone.CanPop() {
			return false, StateStallRecv
		}
		op.land(t.st[op.snet].swDone.Pop())
		return true, StateRun

	case opDynSend:
		if len(op.words) == 0 {
			return true, StateRun
		}
		inj := t.dyn[op.net].in[DirP].(*fifo)
		if !inj.CanPush() {
			return false, StateStallSend
		}
		inj.Push(op.words[0])
		op.words = op.words[1:]
		return len(op.words) == 0, StateRun

	case opDynRecv:
		rq := t.dyn[op.net].recv
		if !rq.CanPop() {
			return false, StateStallRecv
		}
		op.land(rq.Pop())
		return op.i >= len(op.words), StateRun

	case opCacheRead:
		done, v, st := t.cache.access(op.addr, false, 0)
		if done {
			op.land(v)
		}
		return done, st

	case opCacheWrite:
		done, _, st := t.cache.access(op.addr, true, op.val)
		return done, st
	}
	panic("raw: unknown micro-op")
}
