package raw_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/raw"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// fuzzRoutes draws up to three routes with distinct destinations, most
// of them along the network's flow direction (from the opposite side
// toward flow) so words travel across the mesh; P (the processor port)
// is an endpoint only when allowP.
func fuzzRoutes(r *traffic.RNG, flow raw.Dir, allowP bool) []raw.Route {
	dirs := 4
	if allowP {
		dirs = 5
	}
	pick := func(along raw.Dir) raw.Dir {
		switch r.Intn(4) {
		case 0:
			return raw.Dir(r.Intn(dirs))
		case 1:
			if allowP {
				return raw.DirP
			}
		}
		return along
	}
	var routes []raw.Route
	var used [5]bool
	for n := r.Intn(3); n >= 0; n-- {
		d := pick(flow)
		if used[d] {
			continue
		}
		used[d] = true
		routes = append(routes, raw.Route{Dst: d, Src: pick(flow.Opposite())})
	}
	return routes
}

// fuzzPipe draws a pipe: a one-instruction self-loop along the flow,
// perhaps fed by the processor, fanning out to it, or ending there (so
// the processor's pace backs the flow up).
func fuzzPipe(r *traffic.RNG, flow raw.Dir) []raw.SwInstr {
	var routes []raw.Route
	switch src := flow.Opposite(); r.Intn(6) {
	case 0:
		routes = []raw.Route{{Dst: flow, Src: raw.DirP}}
	case 1:
		routes = []raw.Route{{Dst: raw.DirP, Src: src}}
	case 2:
		routes = []raw.Route{{Dst: flow, Src: src}, {Dst: raw.DirP, Src: src}}
	default:
		routes = []raw.Route{{Dst: flow, Src: src}}
	}
	return []raw.SwInstr{{Op: raw.SwJump, Arg: 0, Routes: routes}}
}

// fuzzProgram draws one switch program. It returns the program and, for
// a dispatch table, whether each routine's body is a SwRouteV (so the
// firmware knows to write its count).
func fuzzProgram(r *traffic.RNG, flow raw.Dir) ([]raw.SwInstr, []bool) {
	switch k := r.Intn(10); {
	case k == 0:
		return nil, nil // unprogrammed: halts on its first step
	case k == 1:
		return []raw.SwInstr{{Op: raw.SwHalt}}, nil
	case k < 5:
		return fuzzPipe(r, flow), nil
	case k < 7: // dispatch table: RecvPC, then routines of body, notify, jump 0
		prog := []raw.SwInstr{{Op: raw.SwRecvPC}}
		var routeV []bool
		for j := 1 + r.Intn(3); j > 0; j-- {
			body := raw.SwInstr{Op: raw.SwRoute, Routes: fuzzRoutes(r, flow, true)}
			switch r.Intn(3) {
			case 0:
				body.Op = raw.SwRouteV
			case 1:
				body.Op, body.Arg = raw.SwRouteN, raw.Word(1+r.Intn(6))
			}
			routeV = append(routeV, body.Op == raw.SwRouteV)
			prog = append(prog, body,
				raw.SwInstr{Op: raw.SwNotify, Arg: raw.Word(len(routeV))},
				raw.SwInstr{Op: raw.SwJump, Arg: 0})
		}
		return prog, routeV
	}
	// Random straight-line code closed by a jump to 0, as in
	// TestRandomProgramsDigestEquivalence, plus count-register loops.
	n := 1 + r.Intn(6)
	prog := make([]raw.SwInstr, 0, n+1)
	for k := 0; k < n; k++ {
		routes := fuzzRoutes(r, flow, true)
		switch r.Intn(5) {
		case 0:
			prog = append(prog, raw.SwInstr{Op: raw.SwRoute, Routes: routes})
		case 1:
			prog = append(prog, raw.SwInstr{Op: raw.SwRouteN, Arg: raw.Word(1 + r.Intn(8)), Routes: routes})
		case 2:
			prog = append(prog, raw.SwInstr{Op: raw.SwRouteV, Routes: routes})
		default:
			prog = append(prog, raw.SwInstr{Op: raw.SwJump, Arg: raw.Word(r.Intn(k + 1)), Routes: routes})
		}
	}
	return append(prog, raw.SwInstr{Op: raw.SwJump, Arg: 0}), nil
}

// fuzzFW is a tile's micro-op stream: each refill enqueues one to three
// ops drawn from its own generator, mostly the receives and sends its
// switches' processor routes call for; a port-only stream draws nothing
// else but short computes, so it keeps draining and feeding its switch
// at an uneven pace. With a refill budget it quiesces once the budget is
// spent; with a negative one it never does.
type fuzzFW struct {
	rng      *traffic.RNG
	left     int
	w, h     int
	cache    bool
	dispatch [raw.NumStaticNets][]bool // per net: routine i's body is a SwRouteV
	// recvs and sends list the static networks whose switch program
	// routes a word to, respectively from, the processor.
	recvs, sends []int
	portOnly     bool
	// in is where the stream's receives land; their completions fold
	// the landed words into sum.
	in  [4]raw.Word
	sum raw.Word
}

func (f *fuzzFW) Quiesced() bool { return f.left == 0 }

func (f *fuzzFW) Refill(e *raw.Exec) {
	if f.left == 0 {
		return
	}
	if f.left > 0 {
		f.left--
	}
	for n := 1 + f.rng.Intn(3); n > 0; n-- {
		f.op(e)
	}
}

// fold returns a completion callback that folds the first k landed
// words into sum.
func (f *fuzzFW) fold(k int) func() {
	return func() {
		for _, w := range f.in[:k] {
			f.sum = f.sum*31 + w + 1
		}
	}
}

// countUp returns the k words w, w+1, ... that a SendN sources.
func countUp(w raw.Word, k int) []raw.Word {
	ws := make([]raw.Word, k)
	for i := range ws {
		ws[i] = w + raw.Word(i)
	}
	return ws
}

func (f *fuzzFW) op(e *raw.Exec) {
	r := f.rng
	net := r.Intn(raw.NumStaticNets)
	k := 1 + r.Intn(4)
	w := raw.Word(r.Uint64())
	op := r.Intn(20)
	if f.portOnly {
		op = 12 + r.Intn(8)
	}
	if op >= 12 {
		switch {
		case op < 16 && len(f.recvs) > 0:
			net, op = f.recvs[r.Intn(len(f.recvs))], 2
		case op < 19 && len(f.sends) > 0:
			net, op = f.sends[r.Intn(len(f.sends))], 1
		default:
			op = 0
		}
	}
	switch op {
	case 0:
		e.Compute(k)
	case 1:
		if r.Intn(2) == 0 {
			e.SendN(k, countUp(w, k))
			break
		}
		e.SendOn(net, w)
	case 2:
		if r.Intn(3) == 0 {
			e.RecvN(k, 1+r.Intn(2), f.in[:k])
			e.OnDone(f.fold(k))
			break
		}
		e.RecvOn(net, &f.in[0])
		e.OnDone(f.fold(1))
	case 3:
		e.Forward(k)
	case 4:
		e.RecvN(k, 1+r.Intn(2), f.in[:k])
		e.OnDone(f.fold(k))
	case 5:
		e.SendN(k, countUp(w, k))
	case 6, 7:
		if routines := f.dispatch[net]; len(routines) > 0 {
			j := r.Intn(len(routines))
			if routines[j] {
				n := raw.Word(r.Intn(5))
				e.WriteSwitchCountOn(net, n)
			}
			e.WriteSwitchPCOn(net, raw.Word(1+3*j))
			e.WaitSwitchDoneOn(net, &f.in[0])
			e.OnDone(f.fold(1))
		} else {
			e.WriteSwitchCountOn(net, raw.Word(k))
		}
	case 8:
		x, y, plen := r.Intn(f.w+2)-1, r.Intn(f.h+2)-1, r.Intn(4)
		msg := []raw.Word{raw.DynHeader(x, y, plen)}
		for i := 0; i < plen; i++ {
			msg = append(msg, w+raw.Word(i))
		}
		e.DynSend(raw.DynGeneral, msg)
	case 9:
		e.DynRecv(raw.DynGeneral, f.in[:k])
		e.OnDone(f.fold(k))
	case 10:
		if !f.cache {
			e.Compute(1)
			break
		}
		addr := raw.Word(r.Intn(1 << 11))
		if r.Intn(2) == 0 {
			e.CacheWrite(addr, w)
		} else {
			e.CacheRead(addr, &f.in[0])
			e.OnDone(f.fold(1))
		}
	case 11:
		e.Then(func(e *raw.Exec) { f.op(e) })
	}
}

// fuzzHook observes every tile's counters on its due cycles, as the
// router's watchdog does, and may reprogram a switch there.
type fuzzHook struct {
	chip   *raw.Chip
	flow   [raw.NumStaticNets]raw.Dir
	period int64
	rng    *traffic.RNG
	log    []int64
}

func (h *fuzzHook) NextDue(cycle int64) int64 {
	return (cycle + h.period - 1) / h.period * h.period
}

func (h *fuzzHook) Tick(cycle int64) {
	if cycle%h.period != 0 {
		return
	}
	// Reprogram before observing, so the reconfiguration itself must
	// bring parked tiles up to date.
	if h.rng.Intn(32) == 0 {
		t, net := h.chip.Tile(h.rng.Intn(h.chip.NumTiles())), h.rng.Intn(raw.NumStaticNets)
		prog, _ := fuzzProgram(h.rng, h.flow[net])
		if err := t.SetSwitchProgramOn(net, prog); err != nil {
			panic(err)
		}
	}
	for i := 0; i < h.chip.NumTiles(); i++ {
		// Rotate which accessor reads a tile first: each must bring a
		// parked tile's counters up to date on its own.
		t := h.chip.Tile(i)
		for k := 0; k < 3; k++ {
			switch (i + k) % 3 {
			case 0:
				h.log = append(h.log, int64(t.Exec().State()))
			case 1:
				c := t.Exec().StateCounts()
				h.log = append(h.log, c[:]...)
			default:
				h.log = append(h.log, t.SwitchOn(0).Stalls(), t.SwitchOn(1).Stalls())
			}
		}
	}
}

// fuzzRun is one realization of a scenario.
type fuzzRun struct {
	chip *raw.Chip
	flow [raw.NumStaticNets]raw.Dir
	fws  []*fuzzFW
	hook *fuzzHook
	rec  *trace.Recorder
	// ins lists the boundary inputs upstream of each network's flow
	// first, then the rest.
	ins      []*raw.StaticIn
	upstream int
}

// fuzzChip builds one realization. It draws everything from a generator
// seeded with seed, so two calls build identical chips.
func fuzzChip(seed uint64, eng raw.Engine) *fuzzRun {
	r := traffic.NewRNG(seed)
	cfg := raw.DefaultConfig()
	cfg.Width, cfg.Height = 2+r.Intn(3), 2+r.Intn(3)
	cfg.Engine = eng
	n := cfg.Width * cfg.Height
	run := &fuzzRun{}
	// Each network carries its words along one flow direction, and one
	// lane of tiles across the mesh along it is mostly pipes.
	var lane [raw.NumStaticNets]int
	for net := range run.flow {
		run.flow[net] = raw.Dir(r.Intn(4))
		lane[net] = r.Intn(4)
	}
	if r.Intn(3) == 0 {
		start := int64(r.Intn(1500))
		run.rec = trace.NewRecorder(n, start, start+int64(1+r.Intn(200)))
		cfg.Tracer = run.rec
	}
	chip := raw.NewChip(cfg)
	run.chip = chip
	if err := chip.EnableRecording(); err != nil {
		panic(err)
	}
	// Sometimes one network carries a ring of self-loop streamers round
	// the 2×2 block on the west edge at row ringY: its north-west tile
	// first routes ringWords west-edge words in, then every tile passes
	// words round clockwise. Once each link holds a word the four
	// switches stream with no first writer, and the window declines.
	// Sometimes the whole chip streams: every switch is a plain pipe
	// along its network's flow, a tile on a side edge may also copy each
	// word out of that edge, and all firmware quiesces, so macro windows
	// move runs across the mesh.
	quiet := r.Intn(4) == 0
	ringNet, ringY, ringWords := -1, r.Intn(cfg.Height-1), 4+r.Intn(4)
	if r.Intn(4) == 0 {
		ringNet = r.Intn(raw.NumStaticNets)
	}
	ring := map[int][]raw.SwInstr{
		ringY * cfg.Width: {
			{Op: raw.SwRouteN, Arg: raw.Word(ringWords), Routes: []raw.Route{{Dst: raw.DirE, Src: raw.DirW}}},
			{Op: raw.SwJump, Arg: 1, Routes: []raw.Route{{Dst: raw.DirE, Src: raw.DirS}}}},
		ringY*cfg.Width + 1:     {{Op: raw.SwJump, Routes: []raw.Route{{Dst: raw.DirS, Src: raw.DirW}}}},
		(ringY+1)*cfg.Width + 1: {{Op: raw.SwJump, Routes: []raw.Route{{Dst: raw.DirW, Src: raw.DirN}}}},
		(ringY + 1) * cfg.Width: {{Op: raw.SwJump, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirE}}}},
	}
	cache := r.Intn(2) == 0
	if cache {
		mem.Attach(chip, 1+r.Intn(20))
	}
	for id := 0; id < n; id++ {
		t := chip.Tile(id)
		fw := &fuzzFW{rng: r.Fork(uint64(id)), w: cfg.Width, h: cfg.Height, cache: cache}
		for net := 0; net < raw.NumStaticNets; net++ {
			prog, routeV := fuzzProgram(r, run.flow[net])
			pos := id % cfg.Width
			if run.flow[net] == raw.DirE || run.flow[net] == raw.DirW {
				pos = id / cfg.Width
			}
			if pos == lane[net] && r.Intn(8) != 0 {
				prog, routeV = fuzzPipe(r, run.flow[net]), nil
			}
			if quiet {
				flow := run.flow[net]
				routes := []raw.Route{{Dst: flow, Src: flow.Opposite()}}
				for _, side := range []raw.Dir{(flow + 1) % 4, (flow + 3) % 4} {
					if t.Boundary(side) && r.Intn(2) == 0 {
						routes = append(routes, raw.Route{Dst: side, Src: flow.Opposite()})
					}
				}
				prog, routeV = []raw.SwInstr{{Op: raw.SwJump, Routes: routes}}, nil
			}
			if ringProg, ok := ring[id]; ok && net == ringNet {
				prog, routeV = ringProg, nil
			}
			if err := t.SetSwitchProgramOn(net, prog); err != nil {
				panic(err)
			}
			fw.dispatch[net] = routeV
			var recv, send bool
			for _, in := range prog {
				for _, rt := range in.Routes {
					recv = recv || rt.Dst == raw.DirP
					send = send || rt.Src == raw.DirP
				}
			}
			if recv {
				fw.recvs = append(fw.recvs, net)
			}
			if send {
				fw.sends = append(fw.sends, net)
			}
		}
		switch r.Intn(4) {
		case 0:
			continue // no firmware: the processor idles
		case 1:
			fw.left = -1
		default:
			fw.left = r.Intn(40)
		}
		if quiet {
			fw.left = r.Intn(40)
		}
		fw.portOnly = len(fw.recvs)+len(fw.sends) > 0 && r.Intn(2) == 0
		run.fws = append(run.fws, fw)
		t.Exec().SetFirmware(fw)
	}
	var rest []*raw.StaticIn
	for id := 0; id < n; id++ {
		for _, d := range []raw.Dir{raw.DirN, raw.DirE, raw.DirS, raw.DirW} {
			if chip.Tile(id).Boundary(d) {
				for net := 0; net < raw.NumStaticNets; net++ {
					if in := chip.StaticInOn(net, id, d); d == run.flow[net].Opposite() {
						run.ins = append(run.ins, in)
					} else {
						rest = append(rest, in)
					}
				}
			}
		}
	}
	run.upstream = len(run.ins)
	run.ins = append(run.ins, rest...)
	if ringNet >= 0 {
		for i := 0; i < ringWords; i++ {
			chip.StaticInOn(ringNet, ringY*cfg.Width, raw.DirW).Push(raw.Word(i + 1))
		}
	}
	if r.Intn(2) == 0 {
		s := &fault.Schedule{}
		if !quiet || r.Intn(2) == 0 {
			s = fuzzSchedule(r, n)
		}
		if len(s.Events) == 0 || r.Intn(2) == 0 {
			// Corrupt taps on links along the flow, deep enough into the
			// stream that a window often pops a tapped word.
			for i := 1 + r.Intn(4); i > 0; i-- {
				net := r.Intn(raw.NumStaticNets)
				s.Events = append(s.Events, fault.Event{Kind: fault.KindCorrupt,
					Tile: r.Intn(n), Dir: run.flow[net].Opposite(), Net: net,
					WordIdx: int64(r.Intn(200)), Bit: r.Intn(32)})
			}
		}
		chip.InstallFaults(fault.NewInjector(s, n))
	}
	if r.Intn(2) == 0 {
		run.hook = &fuzzHook{chip: chip, flow: run.flow, period: int64(1 + r.Intn(128)), rng: r.Fork(0x400c)}
		chip.AddStepHook(run.hook)
	}
	return run
}

// fuzzSchedule draws a fault schedule over the first 2,000 cycles: link
// stalls and flaps on either network, freezes, rare crashes, corrupt and
// drop taps and DRAM spikes.
func fuzzSchedule(r *traffic.RNG, tiles int) *fault.Schedule {
	s := &fault.Schedule{}
	for i := r.Intn(6); i > 0; i-- {
		e := fault.Event{
			Start: int64(r.Intn(2000)), Dur: int64(1 + r.Intn(100)),
			Tile: r.Intn(tiles), Dir: raw.Dir(r.Intn(4)), Net: r.Intn(raw.NumStaticNets),
		}
		switch r.Intn(8) {
		case 0, 1:
			e.Kind = fault.KindLink
		case 2:
			e.Kind, e.Repeat = fault.KindFlap, 1+r.Intn(4)
		case 3:
			e.Kind = fault.KindFreeze
		case 4:
			if r.Intn(4) != 0 {
				continue
			}
			e.Kind = fault.KindCrash
		case 5:
			e.Kind, e.WordIdx, e.Bit = fault.KindCorrupt, int64(r.Intn(50)), r.Intn(32)
		case 6:
			e.Kind, e.WordIdx, e.Count = fault.KindDrop, int64(r.Intn(50)), int64(1+r.Intn(5))
		default:
			e.Kind, e.Extra = fault.KindDRAM, 1+r.Intn(40)
		}
		s.Events = append(s.Events, e)
	}
	return s
}

// observe returns the chip's checkpoint bytes and renders everything
// else the oracle compares after a slice, draining the edge sinks and the
// hook log as it goes. The checkpoint is taken first or last, so both
// its digest and the accessors must bring parked tiles up to date.
func (run *fuzzRun) observe(t *testing.T, snapFirst bool) ([]byte, string) {
	chip := run.chip
	var blob []byte
	snap := func() {
		var err error
		if blob, err = chip.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if snapFirst {
		snap()
	}
	var b bytes.Buffer
	for i := 0; i < chip.NumTiles(); i++ {
		tile := chip.Tile(i)
		fmt.Fprintf(&b, "tile %d:", i)
		for net := 0; net < raw.NumStaticNets; net++ {
			sw := tile.SwitchOn(net)
			fmt.Fprintf(&b, " sw%d %d/%d pc %d halted %v", net, sw.Stalls(), sw.Moves(), sw.PC(), sw.Halted())
			for _, d := range []raw.Dir{raw.DirN, raw.DirE, raw.DirS, raw.DirW} {
				if tile.Boundary(d) {
					words, at := chip.StaticOutOn(net, i, d).Drain()
					fmt.Fprintf(&b, " %s%v@%v", d, words, at)
				}
			}
		}
		fmt.Fprintf(&b, " %v %v\n", tile.Exec().State(), tile.Exec().StateCounts())
	}
	for _, fw := range run.fws {
		fmt.Fprintf(&b, " fw %d", fw.sum)
	}
	if run.hook != nil {
		fmt.Fprintf(&b, "\nhook %v", run.hook.log)
		run.hook.log = run.hook.log[:0]
	}
	if !snapFirst {
		snap()
	}
	return blob, b.String()
}

// FuzzEngineEquivalence is the generative oracle for the fast engine.
// From one seed it draws a whole chip scenario — switch programs on both
// static networks (pipes along a flow direction, counted
// SwRouteN/SwRouteV loops, SwRecvPC/SwNotify dispatch tables, jumps),
// micro-op firmware streams (some quiescing, some never), an optional
// memory system, fault schedule, tracer window and a step hook that
// observes every tile and sometimes reprograms a switch — plus a plan of
// Run(n) slices with edge pushes, StaticOut drains, reprogramming and
// resets between them. The scenario runs on two chips: one under the
// reference engine, one under the fast engine with a mid-run switch to
// the reference engine and back. After every slice the fast chip's park
// set must hold its invariants (CheckParkSet), and the chips must agree
// on their checkpoint bytes (which carry the state digest), every tile's
// state counts and state, every switch's counters, the drained edge
// words with their cycle stamps, the firmware's received words and the
// hook's observations.
func FuzzEngineEquivalence(f *testing.F) {
	for seed := uint64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		ref, fast := fuzzChip(seed, raw.EngineRef), fuzzChip(seed, raw.EngineFast)
		plan := traffic.NewRNG(seed ^ 0x5eed)
		slicesN := 4 + plan.Intn(10)
		toRef, back := plan.Intn(slicesN), plan.Intn(slicesN+1)
		for s := 0; s < slicesN; s++ {
			// Between slices: edge pushes, an occasional reprogram or
			// reset, and the fast chip's engine switch.
			for k := plan.Intn(8); k > 0; k-- {
				i, words := plan.Intn(len(ref.ins)), plan.Intn(60)
				if plan.Intn(4) != 0 {
					i = plan.Intn(ref.upstream)
				}
				if plan.Intn(16) == 0 {
					words = 300 + plan.Intn(500) // longer than a run chunk
				}
				for j := 0; j < words; j++ {
					w := raw.Word(plan.Uint64())
					ref.ins[i].Push(w)
					fast.ins[i].Push(w)
				}
			}
			if plan.Intn(8) == 0 {
				id, net := plan.Intn(ref.chip.NumTiles()), plan.Intn(raw.NumStaticNets)
				prog, _ := fuzzProgram(plan, ref.flow[net])
				for _, c := range []*raw.Chip{ref.chip, fast.chip} {
					if err := c.Tile(id).SetSwitchProgramOn(net, prog); err != nil {
						t.Fatal(err)
					}
				}
			}
			if plan.Intn(10) == 0 {
				id, net := plan.Intn(ref.chip.NumTiles()), plan.Intn(raw.NumStaticNets)
				for _, c := range []*raw.Chip{ref.chip, fast.chip} {
					c.Tile(id).Exec().Reset()
					c.Tile(id).ResetStatic(net)
				}
			}
			switch s {
			case toRef:
				fast.chip.SetEngine(raw.EngineRef)
			case back:
				fast.chip.SetEngine(raw.EngineFast)
			}
			var n int64
			switch plan.Intn(3) {
			case 0:
				n = int64(1 + plan.Intn(8))
			case 1:
				n = int64(9 + plan.Intn(56))
			default:
				n = int64(65 + plan.Intn(400))
			}
			ref.chip.Run(n)
			fast.chip.Run(n)
			if err := raw.CheckParkSet(fast.chip); err != nil {
				t.Fatalf("seed %d slice %d: %v", seed, s, err)
			}
			wantBlob, want := ref.observe(t, s%2 == 0)
			gotBlob, got := fast.observe(t, s%2 == 0)
			if want != got || !bytes.Equal(wantBlob, gotBlob) {
				t.Fatalf("seed %d slice %d (cycle %d, fast chip on %v): engines diverged (checkpoints equal: %v)\nref:\n%s\nfast:\n%s",
					seed, s, ref.chip.Cycle(), fast.chip.Engine(), bytes.Equal(wantBlob, gotBlob), want, got)
			}
		}
		if ref.rec != nil {
			tiles := make([]int, ref.chip.NumTiles())
			for i := range tiles {
				tiles[i] = i
			}
			if want, got := ref.rec.CSV(tiles), fast.rec.CSV(tiles); want != got {
				t.Fatalf("seed %d: traces diverged", seed)
			}
		}
	})
}
