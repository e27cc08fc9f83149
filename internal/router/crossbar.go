package router

import (
	"repro/internal/raw"
	"repro/internal/rotor"
)

// xbarFW is the Crossbar Processor firmware (§6.5): per quantum it reads
// the four rotated headers, computes the identical distributed allocation,
// sends the grant to its ingress and (when its egress receives data) the
// egress header, then dispatches its switch into the configuration
// routine and waits for the confirmation.
type xbarFW struct {
	rt   *Router
	port int
	prog *XbarProgram

	token int
	dwell int
	hdrs  [4]raw.Word

	// dead is the masked-out crossbar tile in degraded mode, -1 healthy.
	dead int

	// readmit counts the probation quanta remaining after a restore:
	// while positive, the allocation runs with joining's egress
	// quarantined (rotor.AllocateFT). All four tiles decrement in
	// lockstep, so the distributed schedule stays identical.
	readmit int
	joining int

	// The quantum's allocation (Granted: the inputs that stream).
	alloc   rotor.Allocation
	quantum int64

	// Telemetry capture (armed only when cfg.Metrics is set): the
	// boundary snapshot the router's step hook samples. Written at the
	// quantum boundary and read by the hook before the next boundary —
	// both see committed state on the report port's tile, so the values
	// are identical on either engine.
	lastToken int
	lastReq   uint8
	lastGrant uint8
	lastWords [4]int
}

// The crossbar firmware's steps.
const (
	xbarDecide  raw.Step = iota + 1 // the four headers are in
	xbarAdvance                     // the quantum's routine is done
)

// Step runs step s of the crossbar firmware.
func (x *xbarFW) Step(e *raw.Exec, s raw.Step) {
	switch s {
	case raw.Refill:
		x.refill(e)
	case xbarDecide:
		x.decide(e)
	case xbarAdvance:
		x.advanceToken()
	}
}

func (x *xbarFW) refill(e *raw.Exec) {
	// Headers arrive own-first, then from 1, 2, 3 hops clockwise-upstream.
	// The degraded exchange delivers only the two surviving neighbors, in
	// an order that depends on where the hole is (see
	// GenXbarProgramDegraded).
	p := x.port
	var order []int
	if x.dead >= 0 {
		switch (x.dead - p + 4) % 4 {
		case 1:
			order = []int{p, (p + 3) % 4, (p + 2) % 4}
		case 2:
			order = []int{p, (p + 3) % 4, (p + 1) % 4}
		case 3:
			order = []int{p, (p + 1) % 4, (p + 2) % 4}
		}
		x.hdrs[x.dead] = LocalHdrEmpty
	} else {
		order = []int{p, (p + 3) % 4, (p + 2) % 4, (p + 1) % 4}
	}
	for _, src := range order {
		e.Recv(&x.hdrs[src])
	}
	// The jump-table address computation (§6.5): the thesis computes the
	// configuration index while the switch routes; our protocol phases
	// are sequential, so this models the full header-decode + index
	// arithmetic cost.
	e.Compute(allocCycles)
	e.Then(xbarDecide)
}

// decide computes the quantum's allocation and enqueues one dispatch
// sequence for it: the grant to our ingress, the egress header when our
// out server is active, the routine's count and address, the wait for
// the routine, and the token advance. One walk serves every mode: the
// healthy, degraded or probation ring, and §8.6 member masks through
// the 51-routine jump table.
func (x *xbarFW) decide(e *raw.Exec) {
	var reqs [4]rotor.McastReq
	var prios [4]uint8
	for i, w := range x.hdrs {
		reqs[i] = McastReqOf(w)
		// §8.6 mode walks token order: its jump table has no slots for
		// prioritized orders. All-zero classes are the plain token walk,
		// so priority support costs nothing on best-effort traffic.
		if !x.rt.cfg.Multicast {
			prios[i] = LocalHdrPrioOf(w)
		}
	}
	joining := -1
	if x.readmit > 0 {
		joining = x.joining
	}
	x.alloc = x.rt.allocate(allocKey{reqs, prios, x.token, x.dead, joining})
	tile, src := x.alloc.Tiles[x.port], x.alloc.OutSrc[x.port]
	idx := x.rt.ci.Of(tile)
	l := x.streamLen()

	// Grant word for our ingress (consumed by preamble instruction 4); a
	// multicast grant also names the members served.
	grant := GrantWord(x.alloc.Granted[x.port], l)
	if x.rt.cfg.Multicast {
		grant = GrantWordMcast(x.alloc.Served[x.port], l)
	}
	e.Send(grant)
	if x.prog.HasOut[idx] {
		if src < 0 {
			panic("router: out server active with no source")
		}
		_, fragLen, last, _ := DecodeLocalHdr(x.hdrs[src])
		eh := EgressHdr(src, fragLen, l, last)
		if LocalHdrFirstOf(x.hdrs[src]) {
			eh = EgressHdrFirst(eh)
		}
		e.Send(eh)
	}
	if x.prog.NeedsCount[idx] {
		count := l - x.prog.MaxOffset[idx]
		if count < 1 {
			panic("router: quantum shorter than routine pipeline depth")
		}
		e.WriteSwitchCount(raw.Word(count))
	}
	e.WriteSwitchPC(x.prog.RoutineAddr[idx])
	e.WaitSwitchDone(nil)
	e.Then(xbarAdvance)
}

// allocKey is everything a crossbar allocation depends on: the four
// request masks and classes, the token, and the dead and joining tiles.
type allocKey struct {
	reqs                 [4]rotor.McastReq
	prios                [4]uint8
	token, dead, joining int
}

// allocate returns the allocation for k. Every live crossbar tile walks
// the same inputs each quantum, so the router keeps the last inputs and
// their allocation and the other tiles reuse it: host-side state, never
// serialized, and read-only once walked.
func (r *Router) allocate(k allocKey) rotor.Allocation {
	if r.alloc.Tiles == nil || r.allocFor != k {
		r.allocFor = k
		r.alloc = rotor.AllocateFT(k.reqs[:], k.token, k.prios[:], k.dead, k.joining)
	}
	return r.alloc
}

// streamLen is the quantum's streaming length L: the longest fragment
// among the inputs that stream.
func (x *xbarFW) streamLen() int {
	l := 0
	for i, s := range x.alloc.Granted {
		if _, fragLen, _, _ := DecodeLocalHdr(x.hdrs[i]); s && fragLen > l {
			l = fragLen
		}
	}
	return l
}

// advanceToken closes the quantum: it captures the scheduler decision for
// telemetry and moves the token on.
func (x *xbarFW) advanceToken() {
	if x.rt.cfg.Metrics != nil && x.port == x.rt.reportPort {
		x.captureQuantum()
	}
	// Weighted round robin (§8.7): the token dwells at port i for
	// Weights[i] quanta. Every crossbar tile advances the same local
	// counter, so the token still never crosses the network.
	x.dwell++
	w := 1
	if x.rt.cfg.Weights != nil {
		w = x.rt.cfg.Weights[x.token]
		if w < 1 {
			w = 1
		}
	}
	if x.dwell >= w {
		x.token = rotor.NextToken(x.token, 4)
		if x.token == x.dead {
			x.token = rotor.NextToken(x.token, 4)
		}
		x.dwell = 0
	}
	if x.readmit > 0 {
		x.readmit--
	}
	x.quantum++
}

// captureQuantum records the completed quantum's scheduler decision for
// the telemetry plane: the token owner, which ports requested (non-empty
// header) and were granted, and the granted fragment lengths. It runs in
// the boundary's step, before the token rotates, touching only this
// tile's firmware state.
func (x *xbarFW) captureQuantum() {
	x.lastToken = x.token
	var req, grant uint8
	for p := 0; p < 4; p++ {
		x.lastWords[p] = 0
		if x.hdrs[p] != LocalHdrEmpty {
			req |= 1 << p
		}
		if x.alloc.Granted[p] {
			grant |= 1 << p
			_, fragLen, _, _ := DecodeLocalHdr(x.hdrs[p])
			x.lastWords[p] = fragLen
		}
	}
	x.lastReq, x.lastGrant = req, grant
}

// restart rewires the firmware for a reconfigured ring between cycles,
// after Router.program reinstalled its tile: prog is the crossbar
// program now on the switch, dead the masked tile (-1 healthy), and
// token the tile every live crossbar starts the rotation at, so the
// distributed allocation resumes in lockstep. Degrade restarts the
// survivors on the masked ring with the token past the hole; a restore
// restarts all four tiles on the full ring with the token at the joining
// port, whose egress stays quarantined for readmit quanta.
func (x *xbarFW) restart(prog *XbarProgram, dead, token, joining, readmit int) {
	x.prog = prog
	x.dead = dead
	x.token = token
	x.dwell = 0
	x.hdrs = [4]raw.Word{}
	x.joining = joining
	x.readmit = readmit
}
