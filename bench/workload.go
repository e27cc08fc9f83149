package main

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/traffic"
)

// params are one episode's inputs.
type params struct {
	seed   uint64
	engine raw.Engine
	// warm and seg are the warm-up and segment lengths in cycles, already
	// divided by the scale.
	warm, seg int64
	// dir holds the episode's checkpoint files.
	dir string
}

// episodeRunner is one constructed workload instance. run performs the
// warm-up, the timed segments and the end-of-episode checks.
type episodeRunner interface {
	run(m *meter) (outcome, error)
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// warmup and segment are the untimed warm-up and the length of each of
	// the episode's timed segments, in simulated cycles; both are multiples
	// of unit, the workload's driving step.
	warmup, segment, unit int64
	// paperGbps is the paper's measurement of this workload, 0 if none.
	paperGbps float64
	build     func(p params) (episodeRunner, error)
}

// outcome is what one episode produced: ops are packets offered, failed
// those shed, dropped or lost.
type outcome struct {
	ops, failed int64
	// cycles and words are the timed phase's simulated cycles and the
	// words delivered in them.
	cycles, words int64
	digest        uint64
	// vals holds the per-layer counts and one-off timings, by metric name.
	vals map[string]float64
}

// workloads is the benchmark, in run order.
var workloads = []*workload{router1024, router64, serveDaymini, fabricMesh16}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// params returns the episode inputs for seed, with every cycle length
// divided by scale (1 is the benchmark; tests run shortened episodes) and
// kept a multiple of the workload's unit. Only the segment length has a
// floor of one unit: a zero warm-up stays zero.
func (w *workload) params(seed uint64, engine raw.Engine, scale int64, dir string) params {
	scaled := func(n int64) int64 { return n / scale / w.unit * w.unit }
	p := params{seed: seed, engine: engine, dir: dir, warm: scaled(w.warmup), seg: scaled(w.segment)}
	if p.seg < w.unit {
		p.seg = w.unit
	}
	return p
}

// packetSource makes the closed-loop workloads' packets from a traffic
// spec's closed-loop sources, one per port, and puts them on the wire as
// core.Router.Offer does. Payloads follow ip.NewPacket's pattern for the
// packet's id and destination, so every delivered packet can be checked
// without remembering what was sent.
type packetSource struct {
	srcs      []traffic.Source
	id        uint16
	sizeBytes int
	// batch collects one round's packets so they are built before the
	// offer span opens.
	batch []ip.Packet
}

// newPacketSource builds spec's sources. Packet ids count up from a start
// drawn from the spec's seed, so the seed varies every payload even where
// the pattern itself draws nothing from it.
func newPacketSource(spec traffic.Spec) (*packetSource, error) {
	wl, err := traffic.Build(spec)
	if err != nil {
		return nil, err
	}
	srcs, err := wl.Sources()
	if err != nil {
		return nil, err
	}
	return &packetSource{srcs: srcs, sizeBytes: wl.Spec.Size,
		id: uint16(traffic.NewRNG(wl.Spec.Seed).Uint64())}, nil
}

// topUp appends to batch the packets that raise a port's pin backlog to
// backlogWords and returns how many it appended.
func (s *packetSource) topUp(port, backlog int) int {
	n := 0
	for backlog < backlogWords {
		pkt := s.srcs[port].Next()
		s.id++
		s.batch = append(s.batch, ip.NewPacket(pkt.SrcIP, pkt.DstIP, 64, pkt.SizeBytes, s.id))
		backlog += (pkt.SizeBytes + 3) / 4
		n++
	}
	return n
}

// The closed loop tops every input up to backlogWords each roundCycles.
const (
	backlogWords = 4096
	roundCycles  = 200
)

// pins are the ports the closed loop drives: a router's four or a
// fabric's externals.
type pins interface {
	InputBacklogWords(port int) int
	OfferPacket(port int, pkt *ip.Packet)
	Run(cycles int64)
	DrainOutput(port int) ([]ip.Packet, error)
}

// closedLoop is the router and fabric workloads' driver, fabsim's loop:
// every round tops each input's pin backlog up to backlogWords and runs
// roundCycles; every drainRounds rounds every output is drained and each
// packet checked. Spans carry the names of the layers the calls go into.
type closedLoop struct {
	sys                           pins
	src                           *packetSource
	offerSpan, runSpan, drainSpan string
	drainRounds                   int64
	// afterRound, if set, runs after every round.
	afterRound func(m *meter) error

	need               []int
	offered, delivered int64
	portDigest         []digest
}

// newClosedLoop drives sys with spec's traffic, one source per port.
func newClosedLoop(sys pins, spec traffic.Spec) (*closedLoop, error) {
	src, err := newPacketSource(spec)
	if err != nil {
		return nil, err
	}
	ports := len(src.srcs)
	l := &closedLoop{sys: sys, src: src, need: make([]int, ports), portDigest: make([]digest, ports)}
	for i := range l.portDigest {
		l.portDigest[i] = newDigest()
	}
	return l, nil
}

func (l *closedLoop) round(m *meter, drain bool) error {
	id := m.tr.begin("traffic.next")
	l.src.batch = l.src.batch[:0]
	for port := range l.need {
		l.need[port] = l.src.topUp(port, l.sys.InputBacklogWords(port))
	}
	m.tr.end(id)
	id = m.tr.begin(l.offerSpan)
	next := 0
	for port, n := range l.need {
		for i := 0; i < n; i++ {
			l.sys.OfferPacket(port, &l.src.batch[next])
			next++
		}
	}
	m.tr.end(id)
	l.offered += int64(next)

	id = m.tr.begin(l.runSpan)
	l.sys.Run(roundCycles)
	m.tr.end(id)
	if drain {
		if err := l.drain(m); err != nil {
			return err
		}
	}
	if l.afterRound != nil {
		return l.afterRound(m)
	}
	return nil
}

func (l *closedLoop) drain(m *meter) error {
	for port := range l.portDigest {
		id := m.tr.begin(l.drainSpan)
		pkts, err := l.sys.DrainOutput(port)
		m.tr.end(id)
		if err != nil {
			return err
		}
		for i := range pkts {
			if err := checkPacket(port, &pkts[i], l.src.sizeBytes); err != nil {
				return fmt.Errorf("output %d: %w", port, err)
			}
			l.portDigest[port].addPacket(&pkts[i])
		}
		l.delivered += int64(len(pkts))
	}
	return nil
}

// rounds runs cycles (a whole number of rounds), draining on every
// drainRounds-th round and on the last.
func (l *closedLoop) rounds(m *meter, cycles int64) error {
	n := cycles / roundCycles
	for i := int64(1); i <= n; i++ {
		if err := l.round(m, i%l.drainRounds == 0 || i == n); err != nil {
			return err
		}
	}
	return nil
}

// digest is a running FNV-1a hash of 64-bit values.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} } // FNV-1a offset basis

func (d *digest) add(vs ...int64) {
	const prime = 1099511628211
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h ^= uint64(byte(uint64(v) >> (8 * i)))
			d.h *= prime
		}
	}
}

func (d *digest) addArr(vs ...[4]int64) {
	for _, a := range vs {
		d.add(a[:]...)
	}
}

// checkPacket verifies one packet delivered at output port out of a
// fabric whose ports own (10+port).0.0.0/8: it left at its destination's
// port, its TTL dropped by at least one hop, it kept the size it was
// offered at, and its payload is the pattern ip.NewPacket wrote for its id
// and destination.
func checkPacket(out int, pkt *ip.Packet, sizeBytes int) error {
	h := &pkt.Header
	if int(h.Dst>>24)-10 != out {
		return fmt.Errorf("packet id %d to %v delivered at port %d", h.ID, h.Dst, out)
	}
	if h.TTL == 0 || h.TTL >= 64 {
		return fmt.Errorf("packet id %d: TTL %d after forwarding from 64", h.ID, h.TTL)
	}
	if int(h.TotalLen) != sizeBytes {
		return fmt.Errorf("packet id %d: length %d, offered %d", h.ID, h.TotalLen, sizeBytes)
	}
	seed := uint32(h.ID)*2654435761 + uint32(h.Dst)
	for i, w := range pkt.Payload {
		seed = seed*1664525 + 1013904223
		if w != seed {
			return fmt.Errorf("packet id %d: payload word %d corrupted", h.ID, i)
		}
	}
	return nil
}

// addPacket folds a delivered packet into a port's digest.
func (d *digest) addPacket(pkt *ip.Packet) {
	h := &pkt.Header
	d.add(int64(h.Src), int64(h.Dst), int64(h.ID), int64(h.TotalLen), int64(h.TTL))
}

// macroCounts is the engine's cumulative macro-step engagement, summed
// over chips: windows run, cycles they covered, and windows declined per
// cause.
type macroCounts struct {
	windows, cycles int64
	disarms         [raw.NumMacroCauses]int64
}

func (a *macroCounts) addChip(windows, cycles int64, disarms [raw.NumMacroCauses]int64) {
	a.windows += windows
	a.cycles += cycles
	for i, v := range disarms {
		a.disarms[i] += v
	}
}

func (a macroCounts) since(b macroCounts) macroCounts {
	d := macroCounts{windows: a.windows - b.windows, cycles: a.cycles - b.cycles}
	for i := range d.disarms {
		d.disarms[i] = a.disarms[i] - b.disarms[i]
	}
	return d
}

// into reports a timed phase's engagement (a difference of two readings)
// against the chip cycles simulated in it.
func (a macroCounts) into(vals map[string]float64, chipCycles int64) {
	vals["raw.macro_windows"] = float64(a.windows)
	if chipCycles > 0 {
		vals["raw.macro_cycle_frac"] = float64(a.cycles) / float64(chipCycles)
	}
	for _, c := range raw.MacroCauses() {
		vals["raw.disarm."+c.String()] = float64(a.disarms[c])
	}
}
