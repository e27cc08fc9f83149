package rotor

import "repro/internal/stats"

// FabricConfig parameterizes the quantum-stepped Rotating Crossbar
// simulator — the fast model used for property tests, parameter sweeps,
// and the Chapter 8 extension studies. Cycle accounting mirrors the
// cycle-level router: one quantum costs OverheadCycles of control (header
// exchange, configuration dispatch — Figure 6-2) plus one cycle per body
// word streamed.
type FabricConfig struct {
	// Ports is the ring size (4 in the paper; §8.5 explores more).
	Ports int
	// QuantumWords caps one fragment (default 256 words = one 1,024-byte
	// packet).
	QuantumWords int
	// OverheadCycles is the per-quantum control cost (default 54,
	// calibrated against the cycle-level router).
	OverheadCycles int
	// InputDepth bounds each ingress queue in packets (0 = unbounded;
	// §4.4 assumes large external buffering).
	InputDepth int
	// SecondNetwork adds the second Raw static network as a second pair
	// of ring channels — the §5.3 ablation.
	SecondNetwork bool
	// Weights, if set, give each port's token dwell in quanta — the
	// weighted round robin QoS of §5.4/§8.7.
	Weights []int
}

// DefaultFabricConfig returns the paper's configuration.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{Ports: DefaultPorts, QuantumWords: 256, OverheadCycles: 54}
}

// FabricPkt is a packet queued at a fabric input.
type FabricPkt struct {
	Dst   int
	Words int
	// Enq is the cycle the packet entered the input queue.
	Enq int64
	// Tag is an opaque caller identifier carried to delivery (used by
	// multi-fabric simulations such as the §8.8 LEO constellation).
	Tag int64
}

// Fabric is the quantum-stepped Rotating Crossbar.
type Fabric struct {
	cfg   FabricConfig
	inq   [][]FabricPkt
	sent  []int // words already sent of each head packet
	token int
	dwell int

	// Cycles is simulated time.
	Cycles int64
	// Quanta counts routing quanta.
	Quanta int64
	// WordsOut / PktsOut / BytesOut count goodput per egress.
	WordsOut []int64
	PktsOut  []int64
	// GrantsPerInput counts quanta each input sent in.
	GrantsPerInput []int64
	// BlockedPerInput counts quanta each input was denied while
	// backlogged.
	BlockedPerInput []int64
	// Latency is packet queue-to-delivery latency in cycles.
	Latency *stats.Histogram
	// PadWords counts bandwidth lost to padding short fragments up to
	// the quantum's streaming length.
	PadWords int64
	// Drops counts packets rejected by bounded input queues.
	Drops int64
	// OnDeliver, if non-nil, is called for every completed packet with
	// its egress port.
	OnDeliver func(port int, pkt FabricPkt)
}

// NewFabric builds a fabric.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.Ports < 2 {
		panic("rotor: fabric needs at least 2 ports")
	}
	if cfg.QuantumWords <= 0 {
		cfg.QuantumWords = 256
	}
	if cfg.OverheadCycles < 0 {
		cfg.OverheadCycles = 0
	}
	if cfg.Weights != nil && len(cfg.Weights) != cfg.Ports {
		panic("rotor: weights must match port count")
	}
	return &Fabric{
		cfg:             cfg,
		inq:             make([][]FabricPkt, cfg.Ports),
		sent:            make([]int, cfg.Ports),
		WordsOut:        make([]int64, cfg.Ports),
		PktsOut:         make([]int64, cfg.Ports),
		GrantsPerInput:  make([]int64, cfg.Ports),
		BlockedPerInput: make([]int64, cfg.Ports),
		Latency:         stats.NewHistogram(24),
	}
}

// Config returns the fabric configuration.
func (f *Fabric) Config() FabricConfig { return f.cfg }

// Token returns the current master tile.
func (f *Fabric) Token() int { return f.token }

// Offer enqueues a packet at input port, reporting false on overflow.
func (f *Fabric) Offer(port int, dst, words int) bool {
	return f.OfferTagged(port, dst, words, 0)
}

// OfferTagged is Offer with a caller tag carried to delivery.
func (f *Fabric) OfferTagged(port int, dst, words int, tag int64) bool {
	if f.cfg.InputDepth > 0 && len(f.inq[port]) >= f.cfg.InputDepth {
		f.Drops++
		return false
	}
	f.inq[port] = append(f.inq[port], FabricPkt{Dst: dst, Words: words, Enq: f.Cycles, Tag: tag})
	return true
}

// QueueLen returns the packets waiting at an input.
func (f *Fabric) QueueLen(port int) int { return len(f.inq[port]) }

// Headers returns this quantum's header vector (head-of-line packets).
func (f *Fabric) Headers() []Hdr {
	hdrs := make([]Hdr, f.cfg.Ports)
	for i, q := range f.inq {
		if len(q) > 0 {
			hdrs[i] = HdrTo(q[0].Dst)
		}
	}
	return hdrs
}

// StepQuantum advances one routing quantum and returns the allocation it
// executed.
func (f *Fabric) StepQuantum() Allocation {
	hdrs := f.Headers()
	g := GlobalConfig{Hdrs: hdrs, Token: f.token}
	var a Allocation
	if f.cfg.SecondNetwork {
		a = AllocateChannels(g, 2)
	} else {
		a = Allocate(g)
	}

	// The streaming length of this quantum: the longest granted fragment.
	// All granted streams run in lockstep for L cycles (short ones pad).
	L := 0
	frag := make([]int, f.cfg.Ports)
	for i := range f.inq {
		if !a.Granted[i] {
			if hdrs[i] != HdrEmpty {
				f.BlockedPerInput[i]++
			}
			continue
		}
		p := &f.inq[i][0]
		n := p.Words - f.sent[i]
		if n > f.cfg.QuantumWords {
			n = f.cfg.QuantumWords
		}
		frag[i] = n
		if n > L {
			L = n
		}
	}

	for i := range f.inq {
		if !a.Granted[i] {
			continue
		}
		f.GrantsPerInput[i]++
		p := &f.inq[i][0]
		f.sent[i] += frag[i]
		f.PadWords += int64(L - frag[i])
		f.WordsOut[p.Dst] += int64(frag[i])
		if f.sent[i] >= p.Words {
			f.PktsOut[p.Dst]++
			f.Latency.Observe(f.Cycles + int64(f.cfg.OverheadCycles+L) - p.Enq)
			if f.OnDeliver != nil {
				f.OnDeliver(p.Dst, *p)
			}
			f.inq[i] = f.inq[i][1:]
			f.sent[i] = 0
		}
	}

	f.Cycles += int64(f.cfg.OverheadCycles + L)
	f.Quanta++

	// Rotate the token, honoring QoS weights (§8.7).
	f.dwell++
	w := 1
	if f.cfg.Weights != nil {
		w = f.cfg.Weights[f.token]
		if w < 1 {
			w = 1
		}
	}
	if f.dwell >= w {
		f.token = NextToken(f.token, f.cfg.Ports)
		f.dwell = 0
	}
	return a
}

// TotalWords returns goodput words delivered.
func (f *Fabric) TotalWords() int64 {
	var t int64
	for _, w := range f.WordsOut {
		t += w
	}
	return t
}

// TotalPkts returns packets delivered.
func (f *Fabric) TotalPkts() int64 {
	var t int64
	for _, p := range f.PktsOut {
		t += p
	}
	return t
}

// AllocateChannels is Allocate with ch parallel ring channel pairs — the
// §5.3 second-static-network ablation. A transfer blocked on channel 0's
// clockwise and counterclockwise rings retries on channel 1, and so on.
// Egress ports remain single-channel (an Egress Processor consumes one
// word per cycle no matter how many networks feed the crossbar), which is
// the topological reason §5.3 finds the second network does not help.
func AllocateChannels(g GlobalConfig, ch int) Allocation {
	n := len(g.Hdrs)
	outClaimed := make([]bool, n)
	cwBusy := make([][]bool, ch)
	ccwBusy := make([][]bool, ch)
	for c := 0; c < ch; c++ {
		cwBusy[c] = make([]bool, n)
		ccwBusy[c] = make([]bool, n)
	}
	a := Allocation{Granted: make([]bool, n), Tiles: make([]TileConfig, n)}
	for k := 0; k < n; k++ {
		i := (g.Token + k) % n
		d := g.Hdrs[i].Dest()
		if d < 0 {
			continue
		}
		if outClaimed[d] {
			a.Tiles[i].InBlocked = true
			continue
		}
		cwHops := (d - i + n) % n
		if cwHops == 0 {
			outClaimed[d] = true
			a.Granted[i] = true
			a.Transfers = append(a.Transfers, Transfer{Src: i, Dst: d, CW: true, Hops: 0})
			continue
		}
		granted := false
		for c := 0; c < ch && !granted; c++ {
			for _, o := range directionOrder(i, d, n) {
				busy := cwBusy[c]
				if !o.cw {
					busy = ccwBusy[c]
				}
				if pathFree(busy, i, o.hops, o.cw, n) {
					claimPath(busy, i, o.hops, o.cw, n)
					granted = true
					a.Transfers = append(a.Transfers, Transfer{Src: i, Dst: d, CW: o.cw, Hops: o.hops})
					break
				}
			}
		}
		if granted {
			outClaimed[d] = true
			a.Granted[i] = true
		} else {
			a.Tiles[i].InBlocked = true
		}
	}
	// Per-tile switch configurations are only well defined for the single
	// physical network (two channels can pass two streams through one
	// tile in the same direction); the ablation consumes Granted only.
	if ch == 1 {
		for _, tr := range a.Transfers {
			paint(a.Tiles, tr, n)
		}
	}
	return a
}
