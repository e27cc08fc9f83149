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
	// quarantined (rotor.AllocateReadmit). All four tiles decrement in
	// lockstep, so the distributed schedule stays identical.
	readmit int
	joining int

	// Per-quantum derived state.
	alloc   rotor.Allocation
	cfgIdx  int
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

func (x *xbarFW) Refill(e *raw.Exec) {
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
		src := src
		e.Recv(func(w raw.Word) { x.hdrs[src] = w })
	}
	// The jump-table address computation (§6.5): the thesis computes the
	// configuration index while the switch routes; our protocol phases
	// are sequential, so this models the full header-decode + index
	// arithmetic cost.
	e.Compute(x.rt.cfg.AllocCycles)
	e.Then(func(e *raw.Exec) { x.decide(e) })
}

// decide computes the allocation and enqueues the dispatch sequence.
func (x *xbarFW) decide(e *raw.Exec) {
	if x.rt.cfg.Multicast {
		x.decideMixed(e)
		return
	}
	var hdrs [4]rotor.Hdr
	var prios [4]uint8
	for i, w := range x.hdrs {
		hdrs[i] = RotorHdr(w)
		prios[i] = LocalHdrPrioOf(w)
	}
	// AllocatePrio degenerates to the plain token walk when every class
	// is zero (exhaustively tested), so priority support costs nothing on
	// best-effort traffic. In degraded mode the masked allocator routes
	// around the dead tile (the long way when the short arc crosses it).
	g := rotor.GlobalConfig{Hdrs: hdrs[:], Token: x.token}
	switch {
	case x.dead >= 0:
		x.alloc = rotor.AllocateDegraded(g, prios[:], x.dead)
	case x.readmit > 0:
		x.alloc = rotor.AllocateReadmit(g, prios[:], x.joining)
	default:
		x.alloc = rotor.AllocatePrio(g, prios[:])
	}
	x.cfgIdx = x.rt.ci.Of(x.alloc.Tiles[x.port])

	// L: the quantum streaming length — the longest granted fragment.
	l := 0
	for i := 0; i < 4; i++ {
		if !x.alloc.Granted[i] {
			continue
		}
		_, fragLen, _, _ := DecodeLocalHdr(x.hdrs[i])
		if fragLen > l {
			l = fragLen
		}
	}

	// Grant word for our ingress (consumed by preamble instruction 4).
	granted := x.alloc.Granted[x.port]
	e.SendFunc(func() raw.Word { return GrantWord(granted, l) })

	// Egress header if our out server is active this quantum.
	idx := x.cfgIdx
	if x.prog.HasOut[idx] {
		src := -1
		for _, tr := range x.alloc.Transfers {
			if tr.Dst == x.port {
				src = tr.Src
			}
		}
		if src < 0 {
			panic("router: out server active with no matching transfer")
		}
		_, fragLen, last, _ := DecodeLocalHdr(x.hdrs[src])
		eh := EgressHdr(src, fragLen, l, last)
		if LocalHdrFirstOf(x.hdrs[src]) {
			eh = EgressHdrFirst(eh)
		}
		e.SendFunc(func() raw.Word { return eh })
	}
	if x.prog.NeedsCount[idx] {
		count := l - x.prog.MaxOffset[idx]
		if count < 1 {
			panic("router: quantum shorter than routine pipeline depth")
		}
		e.WriteSwitchCount(func() raw.Word { return raw.Word(count) })
	}
	e.WriteSwitchPC(func() raw.Word { return x.prog.RoutineAddr[idx] })
	e.WaitSwitchDone(nil)
	x.advanceToken(e)
}

// decideMixed is the §8.6 variant: member-mask requests through the
// mixed allocator and the 51-routine jump table.
func (x *xbarFW) decideMixed(e *raw.Exec) {
	reqs := make([]rotor.McastReq, 4)
	for i, w := range x.hdrs {
		reqs[i] = McastReqOf(w)
	}
	a := rotor.AllocateMixed(reqs, x.token)
	x.cfgIdx = x.rt.ci.Of(a.Tiles[x.port])

	l := 0
	for i := 0; i < 4; i++ {
		if a.Served[i] == 0 {
			continue
		}
		_, fragLen, _, _ := DecodeLocalHdr(x.hdrs[i])
		if fragLen > l {
			l = fragLen
		}
	}

	served := a.Served[x.port]
	e.SendFunc(func() raw.Word { return GrantWordMcast(served, l) })

	idx := x.cfgIdx
	if x.prog.HasOut[idx] {
		src := a.OutSrc[x.port]
		if src < 0 {
			panic("router: out server active with no source (mixed)")
		}
		_, fragLen, last, _ := DecodeLocalHdr(x.hdrs[src])
		eh := EgressHdr(src, fragLen, l, last)
		if LocalHdrFirstOf(x.hdrs[src]) {
			eh = EgressHdrFirst(eh)
		}
		e.SendFunc(func() raw.Word { return eh })
	}
	if x.prog.NeedsCount[idx] {
		count := l - x.prog.MaxOffset[idx]
		if count < 1 {
			panic("router: quantum shorter than routine pipeline depth (mixed)")
		}
		e.WriteSwitchCount(func() raw.Word { return raw.Word(count) })
	}
	e.WriteSwitchPC(func() raw.Word { return x.prog.RoutineAddr[idx] })
	e.WaitSwitchDone(nil)
	x.advanceToken(e)
}

func (x *xbarFW) advanceToken(e *raw.Exec) {
	e.Then(func(*raw.Exec) {
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
		if x.rt.onQuantum != nil && x.port == x.rt.reportPort && !x.rt.cfg.Multicast {
			x.rt.onQuantum(x.quantum, x.alloc)
		}
	})
}

// captureQuantum records the completed quantum's scheduler decision for
// the telemetry plane: the token owner, which ports requested (non-empty
// header) and were granted, and the granted fragment lengths. It runs in
// the boundary's Then closure, before the token rotates, touching only
// this tile's firmware state.
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

// enterDegraded rewires the firmware for the masked ring. Called between
// cycles by Router.Degrade after the tile's switch was reprogrammed and
// its in-flight state reset; every surviving tile computes the same
// initial token, so the distributed allocation stays in lockstep.
func (x *xbarFW) enterDegraded(dead int, prog *XbarProgram) {
	x.dead = dead
	x.prog = prog
	x.token = (dead + 1) % 4
	x.dwell = 0
	x.hdrs = [4]raw.Word{}
	x.readmit = 0
	x.joining = -1
}

// reenterHealthy rewires the firmware for the full four-tile ring after a
// restore, with a probation window quarantining the re-admitted port's
// egress. Called between cycles by Router.completeRestore on all four
// tiles (the restored one included) after their switches were
// reprogrammed healthy and their in-flight state reset. The token starts
// at the joining tile on every crossbar, so the distributed allocation
// resumes in lockstep and the re-admitted port holds the token first —
// re-entry at a quantum boundary, not mid-rotation.
func (x *xbarFW) reenterHealthy(prog *XbarProgram, joining, readmit int) {
	x.dead = -1
	x.prog = prog
	x.token = joining
	x.dwell = 0
	x.hdrs = [4]raw.Word{}
	x.joining = joining
	x.readmit = readmit
	x.alloc = rotor.Allocation{}
	x.cfgIdx = 0
}
