package rotor

import "repro/internal/stats"

// VOQFabric is the §8.1 "pursuing full utilization" study: the paper's
// ingress keeps a single FIFO, so a head-of-line packet blocked on a busy
// egress idles the whole input (that is where the §7.3 69 % average
// comes from). Organizing each ingress's buffer as virtual output queues
// (§2.2.2's cure, applied to the Rotating Crossbar) lets the token walk
// pick, for each input, any queued output that is still free — no new
// switch code is needed, because every resulting transfer is still one of
// the minimized unicast configurations; only the ingress memory layout
// and the header-selection code change.
type VOQFabric struct {
	cfg FabricConfig
	// inq[port][dst] is the virtual output queue.
	inq   [][][]FabricPkt
	sent  []int // words sent of the in-progress head packet
	cur   []int // dst whose head packet is in progress (-1 = none)
	rr    []int // per-input round-robin pointer over outputs
	token int
	dwell int

	Cycles          int64
	Quanta          int64
	WordsOut        []int64
	PktsOut         []int64
	GrantsPerInput  []int64
	BlockedPerInput []int64
	Latency         *stats.Histogram
}

// NewVOQFabric builds the VOQ-ingress variant.
func NewVOQFabric(cfg FabricConfig) *VOQFabric {
	if cfg.Ports < 2 {
		panic("rotor: fabric needs at least 2 ports")
	}
	if cfg.QuantumWords <= 0 {
		cfg.QuantumWords = 256
	}
	f := &VOQFabric{
		cfg:             cfg,
		sent:            make([]int, cfg.Ports),
		cur:             make([]int, cfg.Ports),
		rr:              make([]int, cfg.Ports),
		WordsOut:        make([]int64, cfg.Ports),
		PktsOut:         make([]int64, cfg.Ports),
		GrantsPerInput:  make([]int64, cfg.Ports),
		BlockedPerInput: make([]int64, cfg.Ports),
		Latency:         stats.NewHistogram(24),
	}
	f.inq = make([][][]FabricPkt, cfg.Ports)
	for i := range f.inq {
		f.inq[i] = make([][]FabricPkt, cfg.Ports)
		f.cur[i] = -1
	}
	return f
}

// Offer enqueues a packet into input port's VOQ for dst.
func (f *VOQFabric) Offer(port, dst, words int) bool {
	if f.cfg.InputDepth > 0 && len(f.inq[port][dst]) >= f.cfg.InputDepth {
		return false
	}
	f.inq[port][dst] = append(f.inq[port][dst], FabricPkt{Dst: dst, Words: words, Enq: f.Cycles})
	return true
}

// QueueLen returns the total packets queued at an input.
func (f *VOQFabric) QueueLen(port int) int {
	n := 0
	for _, q := range f.inq[port] {
		n += len(q)
	}
	return n
}

// StepQuantum advances one quantum: the token walk picks, for each input
// in token order, a servable VOQ (in-progress packet first — fragments of
// one packet never interleave — else round-robin over non-empty queues
// whose egress and ring path are free).
func (f *VOQFabric) StepQuantum() {
	n := f.cfg.Ports
	outClaimed := make([]bool, n)
	cwBusy := make([]bool, n)
	ccwBusy := make([]bool, n)
	chosen := make([]int, n)
	for i := range chosen {
		chosen[i] = -1
	}

	tryGrant := func(i, d int) bool {
		if outClaimed[d] {
			return false
		}
		cwHops := (d - i + n) % n
		if cwHops == 0 {
			outClaimed[d] = true
			return true
		}
		for _, o := range directionOrder(i, d, n) {
			busy := cwBusy
			if !o.cw {
				busy = ccwBusy
			}
			if pathFree(busy, i, o.hops, o.cw, n) {
				claimPath(busy, i, o.hops, o.cw, n)
				outClaimed[d] = true
				return true
			}
		}
		return false
	}

	for k := 0; k < n; k++ {
		i := (f.token + k) % n
		if f.cur[i] >= 0 {
			// A partially-sent packet pins its VOQ (fragments of one
			// packet stay in order on one egress).
			if tryGrant(i, f.cur[i]) {
				chosen[i] = f.cur[i]
			} else {
				f.BlockedPerInput[i]++
			}
			continue
		}
		granted := false
		anyQueued := false
		for s := 0; s < n; s++ {
			d := (f.rr[i] + s) % n
			if len(f.inq[i][d]) == 0 {
				continue
			}
			anyQueued = true
			if tryGrant(i, d) {
				chosen[i] = d
				f.rr[i] = (d + 1) % n
				granted = true
				break
			}
		}
		if anyQueued && !granted {
			f.BlockedPerInput[i]++
		}
	}

	// Stream the chosen fragments in lockstep.
	L := 0
	frag := make([]int, n)
	for i, d := range chosen {
		if d < 0 {
			continue
		}
		p := &f.inq[i][d][0]
		m := p.Words - f.sent[i]
		if m > f.cfg.QuantumWords {
			m = f.cfg.QuantumWords
		}
		frag[i] = m
		if m > L {
			L = m
		}
	}
	for i, d := range chosen {
		if d < 0 {
			continue
		}
		f.GrantsPerInput[i]++
		p := &f.inq[i][d][0]
		f.sent[i] += frag[i]
		f.WordsOut[d] += int64(frag[i])
		if f.sent[i] >= p.Words {
			f.PktsOut[d]++
			f.Latency.Observe(f.Cycles + int64(f.cfg.OverheadCycles+L) - p.Enq)
			f.inq[i][d] = f.inq[i][d][1:]
			f.sent[i] = 0
			f.cur[i] = -1
		} else {
			f.cur[i] = d
		}
	}

	f.Cycles += int64(f.cfg.OverheadCycles + L)
	f.Quanta++
	f.dwell++
	w := 1
	if f.cfg.Weights != nil {
		w = f.cfg.Weights[f.token]
		if w < 1 {
			w = 1
		}
	}
	if f.dwell >= w {
		f.token = NextToken(f.token, n)
		f.dwell = 0
	}
}

// TotalWords returns delivered goodput words.
func (f *VOQFabric) TotalWords() int64 {
	var t int64
	for _, w := range f.WordsOut {
		t += w
	}
	return t
}
