package traffic

// The "flows" pattern: a native open-loop process modeling an Internet-
// like edge mix. Flows arrive at a rate that tracks the offered-load
// shape (Rate × diurnal curve × surges); each flow picks an ingress
// port uniformly, a destination by Zipf popularity, and a length in
// packets from a bounded Pareto — mice and elephants. Packets within a
// flow are paced back-to-back-ish (gap = packet words × pace cycles).
//
// Everything about flow j is derived by hashing (Seed, j), and flow
// start times come from inverting the closed-form cumulative-load
// curve, so Slice(k) enumerates only the bounded range of flows that
// can overlap slice k — no state, no scan from zero. That is what makes
// a million-flow day a pure function of its Spec.

import "fmt"

func init() {
	Register(Pattern{
		Name: "flows",
		Doc:  "heavy-tailed flows: Zipf destinations, bounded-Pareto sizes, open-loop",
		Defaults: map[string]float64{
			"alpha":   1.3,  // Pareto tail exponent of the flow length
			"minflow": 1,    // shortest flow, packets
			"maxflow": 1024, // longest flow, packets (bounds look-back)
			"zipf":    1.1,  // destination-popularity skew (0 = uniform)
			"pace":    1.0,  // intra-flow gap, multiples of the packet's words
		},
		Process: newFlowProcess,
		Check:   checkFlows,
	})
}

func checkFlows(s *Spec) error {
	alpha := s.param("alpha")
	if !(alpha > 0) || alpha > 16 {
		return fmt.Errorf("traffic: flows alpha %v out of range (0, 16]", alpha)
	}
	lo, hi := s.param("minflow"), s.param("maxflow")
	if !(lo >= 1) || lo > 1e6 {
		return fmt.Errorf("traffic: flows minflow %v out of range [1, 1e6]", lo)
	}
	if !(hi >= lo) || hi > 1e6 {
		return fmt.Errorf("traffic: flows maxflow %v out of range [minflow, 1e6]", hi)
	}
	if z := s.param("zipf"); !(z >= 0) || z > 16 {
		return fmt.Errorf("traffic: flows zipf %v out of range [0, 16]", z)
	}
	if p := s.param("pace"); !(p > 0) || p > 64 {
		return fmt.Errorf("traffic: flows pace %v out of range (0, 64]", p)
	}
	return nil
}

// FlowProcess is the native heavy-tailed arrival process. Exported so
// callers (tests, trace tooling) can query flow-level statistics.
type FlowProcess struct {
	spec  Spec
	cyc   int64
	shape *loadShape

	pareto BoundedPareto
	zipf   Zipf
	pace   float64
	// meanFlowWords is the expected on-wire words of one flow — the
	// spacing of flow starts along the cumulative-words axis.
	meanFlowWords float64
	// maxSpan bounds a flow's duration in cycles, so Slice's flow-range
	// look-back is finite.
	maxSpan int64
	// dstOff rotates the Zipf popularity ranking so the hot destination
	// is seed-dependent rather than always port 0.
	dstOff int

	// cache holds the realized flows for the contiguous index window the
	// previous Slice call enumerated, starting at cacheLo. Successive
	// slices shift the window by a handful of flows while re-reading the
	// thousands inside maxSpan, so reuse is what keeps generation free
	// next to the simulation it feeds. Every entry is a pure function of
	// (Seed, j), so the cache can never change a result — but it does
	// make Slice unsafe for concurrent use on one instance.
	cacheLo int64
	cache   []flow
}

func newFlowProcess(s *Spec, sliceCycles int64) (Process, error) {
	f := &FlowProcess{spec: *s, cyc: sliceCycles, shape: newLoadShape(s)}
	f.pareto = NewBoundedPareto(s.param("alpha"), s.param("minflow"), s.param("maxflow"))
	f.zipf = NewZipf(s.Ports, s.param("zipf"))
	f.pace = s.param("pace")
	f.meanFlowWords = f.pareto.Mean() * meanWordsPerPacket(s)
	maxWords := wordsOf(s.Size)
	for _, sz := range s.Sizes {
		if w := wordsOf(sz); w > maxWords {
			maxWords = w
		}
	}
	maxGap := int64(float64(maxWords)*f.pace) + 1
	f.maxSpan = int64(s.param("maxflow"))*maxGap + 1
	f.dstOff = int(s.Seed % uint64(s.Ports))
	return f, nil
}

// flow is one realized flow.
type flow struct {
	start int64
	port  int
	dst   int
	pkts  int
	size  int // bytes per packet
	gap   int64
	salt  uint32
}

// flowAt realizes flow j from (Seed, j) alone.
func (f *FlowProcess) flowAt(j int64) flow {
	rng := NewRNG(mix64(f.spec.Seed ^ uint64(j+1)*0x9e3779b97f4a7c15))
	var fl flow
	fl.port = rng.Intn(f.spec.Ports)
	fl.dst = (f.zipf.Sample(rng.Float64()) + f.dstOff) % f.spec.Ports
	fl.pkts = int(f.pareto.Sample(rng.Float64()) + 0.5)
	if lo := int(f.spec.param("minflow")); fl.pkts < lo {
		fl.pkts = lo
	}
	if hi := int(f.spec.param("maxflow")); fl.pkts > hi {
		fl.pkts = hi
	}
	fl.size = f.spec.Size
	if len(f.spec.Sizes) > 0 {
		// One size per flow: every packet of a flow is the same length.
		var tot float64
		for _, w := range f.spec.Weights {
			tot += w
		}
		x := rng.Float64() * tot
		fl.size = f.spec.Sizes[len(f.spec.Sizes)-1]
		for i, w := range f.spec.Weights {
			if x < w {
				fl.size = f.spec.Sizes[i]
				break
			}
			x -= w
		}
	}
	fl.gap = int64(float64(wordsOf(fl.size)) * f.pace)
	if fl.gap < 1 {
		fl.gap = 1
	}
	fl.salt = uint32(rng.Uint64())
	// Flow j starts when the aggregate offered words reach (j+φ)·mean —
	// φ jitters starts off the lattice while keeping them monotone in j.
	phi := u01(mix64(f.spec.Seed ^ uint64(j+1)*0xbf58476d1ce4e5b9))
	target := (float64(j) + phi) * f.meanFlowWords / float64(f.spec.Ports)
	fl.start = f.shape.invert(target)
	return fl
}

// FlowsThrough returns how many flows start in cycles [0, t) — the
// flow-index horizon used to bound Slice's enumeration, and the
// "million flows" of the day1m preset.
func (f *FlowProcess) FlowsThrough(t int64) int64 {
	agg := f.shape.wordsF(t) * float64(f.spec.Ports)
	return int64(agg / f.meanFlowWords)
}

// flows realizes the contiguous index window [jLo, jHi], reusing any
// overlap with the previous call's window instead of re-hashing it.
func (f *FlowProcess) flows(jLo, jHi int64) []flow {
	if jLo >= f.cacheLo && jLo <= f.cacheLo+int64(len(f.cache)) {
		// Sequential read: drop the flows that fell out of the window and
		// realize only the leading edge.
		f.cache = f.cache[jLo-f.cacheLo:]
		f.cacheLo = jLo
		for j := jLo + int64(len(f.cache)); j <= jHi; j++ {
			f.cache = append(f.cache, f.flowAt(j))
		}
	} else {
		// Out-of-order read (a restore, a sampled day): rebuild outright.
		out := make([]flow, 0, jHi-jLo+1)
		for j := jLo; j <= jHi; j++ {
			out = append(out, f.flowAt(j))
		}
		f.cacheLo, f.cache = jLo, out
	}
	return f.cache[:jHi-jLo+1]
}

// Slice implements Process.
func (f *FlowProcess) Slice(k int64) []Arrival {
	s0 := k * f.cyc
	s1 := s0 + f.cyc
	jLo := f.FlowsThrough(s0-f.maxSpan) - 1
	if jLo < 0 {
		jLo = 0
	}
	jHi := f.FlowsThrough(s1) + 1
	var out []Arrival
	for idx, fl := range f.flows(jLo, jHi) {
		j := jLo + int64(idx)
		if fl.start >= s1 {
			continue
		}
		last := fl.start + int64(fl.pkts-1)*fl.gap
		if last < s0 {
			continue
		}
		// Only the packets landing inside [s0, s1).
		i0 := int64(0)
		if fl.start < s0 {
			i0 = (s0 - fl.start + fl.gap - 1) / fl.gap
		}
		for i := i0; i < int64(fl.pkts); i++ {
			c := fl.start + i*fl.gap
			if c >= s1 {
				break
			}
			out = append(out, Arrival{
				Cycle: c,
				Port:  fl.port,
				Flow:  uint64(j),
				Seq:   uint32(i),
				Pkt: Pkt{
					Dst:       fl.dst,
					SizeBytes: fl.size,
					SrcIP:     PortAddr(fl.port, fl.salt),
					DstIP:     PortAddr(fl.dst, fl.salt*2654435761+uint32(i)),
				},
			})
		}
	}
	sortArrivals(out)
	return out
}

// SliceCycles implements Process.
func (f *FlowProcess) SliceCycles() int64 { return f.cyc }

// Ports implements Process.
func (f *FlowProcess) Ports() int { return f.spec.Ports }
