package traffic

// The open-loop arrival front-end. A Process is a deterministic marked
// point process: Slice(k) returns the timestamped arrivals of slice k
// (cycles [k*S, (k+1)*S)) as a pure function of (Spec, k) — no state
// carries across calls, so slices can be generated out of order, a
// restored run resumes the identical stream, and two processes built
// from the same Spec agree arrival for arrival.
//
// Patterns without a native process get the rate-paced adapter below:
// the offered load (Spec.Rate shaped by the diurnal curve and surges)
// is integrated in closed form to a cumulative per-port packet budget,
// and each slice's quota is drawn from a slice-derived RNG.

import (
	"fmt"
	"math"
	"sort"
)

// defaultSliceCycles is the slice length used when a closed-loop view
// must adapt an open-loop pattern and no caller preference exists.
const defaultSliceCycles = 4096

// Arrival is one timestamped packet arrival at an edge port.
type Arrival struct {
	// Cycle is the arrival time.
	Cycle int64
	// Port is the ingress edge port.
	Port int
	// Flow identifies the flow the packet belongs to; Seq is the packet's
	// index within it. Patterns without flow semantics synthesize unique
	// ids per packet.
	Flow uint64
	Seq  uint32
	// Pkt is the packet descriptor.
	Pkt Pkt
}

// Process is the open-loop arrival contract.
type Process interface {
	// Slice returns the arrivals of slice k, sorted by (Cycle, Port,
	// Flow, Seq). Pure in k: same k, same arrivals, in any call order.
	Slice(k int64) []Arrival
	// SliceCycles is the slice length the process was built on.
	SliceCycles() int64
	// Ports is the port count the arrivals span.
	Ports() int
}

// loadShape integrates the offered-load profile (Rate × diurnal curve ×
// surges) to cumulative per-port offered words — the time base every
// open-loop pattern paces against. The flat profile integrates in exact
// integer fixed point (drift-free at any horizon); shaped profiles use
// closed-form float integration (evaluation, not accumulation, so the
// result is a pure function of t).
type loadShape struct {
	ratePPM int64 // offered words per cycle per port, ×1e6
	day     int64
	curve   []float64 // normalized to mean 1 over the day
	surges  []Surge
}

func newLoadShape(s *Spec) *loadShape {
	ls := &loadShape{ratePPM: int64(s.Rate*1e6 + 0.5), day: s.DayCycles, surges: s.Surges}
	if len(s.Curve) > 0 {
		mean := 0.0
		for _, lv := range s.Curve {
			mean += lv
		}
		mean /= float64(len(s.Curve))
		ls.curve = make([]float64, len(s.Curve))
		for i, lv := range s.Curve {
			ls.curve[i] = lv / mean
		}
	}
	return ls
}

// shaped reports whether the profile needs the float path.
func (ls *loadShape) shaped() bool { return len(ls.curve) > 0 || len(ls.surges) > 0 }

// curveIntegral returns ∫₀ᵗ λ(u) du for the normalized periodic curve
// (λ ≡ 1 when no curve is set), in cycles.
func (ls *loadShape) curveIntegral(t int64) float64 {
	if len(ls.curve) == 0 {
		return float64(t)
	}
	full := t / ls.day
	rem := t % ls.day
	sum := float64(full) * float64(ls.day) // mean is normalized to 1
	m := len(ls.curve)
	segLen := float64(ls.day) / float64(m)
	for i := 0; i < m && rem > 0; i++ {
		a := ls.curve[i]
		b := ls.curve[(i+1)%m]
		u0 := float64(i) * segLen
		u1 := float64(i+1) * segLen
		hi := math.Min(float64(rem), u1)
		if hi <= u0 {
			break
		}
		// Linear level a→b over [u0, u1): integrate to hi.
		x := (hi - u0) / segLen
		sum += segLen * x * (a + (b-a)*x/2)
	}
	return sum
}

// levelIntegral adds the surge episodes: each multiplies the
// instantaneous level by Mult over its window.
func (ls *loadShape) levelIntegral(t int64) float64 {
	sum := ls.curveIntegral(t)
	for _, su := range ls.surges {
		if t <= su.At {
			continue
		}
		hi := su.At + su.Dur
		if t < hi {
			hi = t
		}
		sum += (su.Mult - 1) * (ls.curveIntegral(hi) - ls.curveIntegral(su.At))
	}
	return sum
}

// wordsF is the cumulative per-port offered words through cycle t, as a
// float (for inversion).
func (ls *loadShape) wordsF(t int64) float64 {
	return ls.levelIntegral(t) * float64(ls.ratePPM) / 1e6
}

// words is the cumulative per-port offered words through cycle t.
func (ls *loadShape) words(t int64) int64 {
	if !ls.shaped() {
		return t * ls.ratePPM / 1e6 // exact fixed point, no drift
	}
	return int64(ls.wordsF(t))
}

// invert returns the smallest cycle t with wordsF(t) >= target.
func (ls *loadShape) invert(target float64) int64 {
	if target <= 0 {
		return 0
	}
	hi := int64(1)
	for ls.wordsF(hi) < target {
		hi *= 2
		if hi <= 0 { // overflow guard: load is zero or absurdly small
			return math.MaxInt64 / 4
		}
	}
	lo := hi / 2
	for lo < hi {
		mid := lo + (hi-lo)/2
		if ls.wordsF(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sliceSeed derives the per-(slice, port) RNG stream seed.
func sliceSeed(seed uint64, k int64, port int) uint64 {
	return mix64(seed ^ uint64(k)*0x9e3779b97f4a7c15 ^ uint64(port+1)*0xbf58476d1ce4e5b9)
}

// sortArrivals is the canonical arrival order within a slice.
func sortArrivals(out []Arrival) {
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		return a.Seq < b.Seq
	})
}

// pacedProcess is the generic open-loop adapter over a closed-loop
// pattern: destinations and sizes come from a per-(slice, port) source,
// arrival times from the load shape's cumulative packet budget.
type pacedProcess struct {
	w     *Workload
	cyc   int64
	shape *loadShape
	// mw1000 is the mean on-wire words per packet ×1000 (fixed size, or
	// the weighted mean of the size mix).
	mw1000 int64
}

func newPacedProcess(w *Workload, sliceCycles int64) (*pacedProcess, error) {
	p := &pacedProcess{w: w, cyc: sliceCycles, shape: newLoadShape(&w.Spec)}
	p.mw1000 = int64(meanWordsPerPacket(&w.Spec)*1000 + 0.5)
	if p.mw1000 <= 0 {
		return nil, fmt.Errorf("traffic: workload %s has zero mean packet size", w.Spec.Pattern)
	}
	return p, nil
}

// meanWordsPerPacket returns the expected on-wire words of one packet
// under the spec's size (or size mix).
func meanWordsPerPacket(s *Spec) float64 {
	if len(s.Sizes) == 0 {
		return float64(wordsOf(s.Size))
	}
	var tot, acc float64
	for i, sz := range s.Sizes {
		tot += s.Weights[i]
		acc += s.Weights[i] * float64(wordsOf(sz))
	}
	return acc / tot
}

// wordsOf is the on-wire word count of a packet of size bytes
// (header-inclusive, word-aligned like ip.NewPacket).
func wordsOf(sizeBytes int) int {
	return (sizeBytes + 3) / 4
}

// pktsThrough is the cumulative per-port packet budget through cycle t.
func (p *pacedProcess) pktsThrough(t int64) int64 {
	return p.shape.words(t) * 1000 / p.mw1000
}

// Slice implements Process.
func (p *pacedProcess) Slice(k int64) []Arrival {
	start := k * p.cyc
	base := p.pktsThrough(start)
	n := p.pktsThrough(start+p.cyc) - base
	if n <= 0 {
		return nil
	}
	var out []Arrival
	for port := 0; port < p.w.Spec.Ports; port++ {
		rng := NewRNG(sliceSeed(p.w.Spec.Seed, k, port))
		src, err := p.w.sourceWithRNG(port, rng)
		if err != nil {
			// Builders validate at Build time; a per-slice failure would be
			// a registry bug, and an open-loop generator has no error path.
			panic(err)
		}
		for i := int64(0); i < n; i++ {
			pkt := src.Next()
			// Re-salt the addresses from the slice stream so they do not
			// repeat every slice (the source's own counter restarts here).
			salt := uint32(rng.Uint64())
			pkt.SrcIP = PortAddr(port, salt)
			pkt.DstIP = PortAddr(pkt.Dst, salt*2654435761+1)
			out = append(out, Arrival{
				Cycle: start + i*p.cyc/n,
				Port:  port,
				Flow:  uint64(k)<<24 | uint64(port)<<20 | uint64(base+i)&0xfffff,
				Seq:   0,
				Pkt:   pkt,
			})
		}
	}
	sortArrivals(out)
	return out
}

// SliceCycles implements Process.
func (p *pacedProcess) SliceCycles() int64 { return p.cyc }

// Ports implements Process.
func (p *pacedProcess) Ports() int { return p.w.Spec.Ports }

// sourceWithRNG builds the pattern source for one port over a caller-
// supplied RNG stream (the paced adapter derives one per slice).
func (w *Workload) sourceWithRNG(port int, rng *RNG) (Source, error) {
	src, err := w.pat.Source(&w.Spec, port, rng)
	if err != nil {
		return nil, err
	}
	if len(w.Spec.Sizes) > 0 {
		src = &SizeMix{Inner: src, SizesB: w.Spec.Sizes, Weights: w.Spec.Weights, rng: rng.Fork(2)}
	}
	return src, nil
}

// processSource adapts an open-loop process to the closed-loop Source
// contract: it walks the port's arrival stream in order, dropping
// timestamps. Used for patterns that only exist as arrivals (flows)
// when a closed-loop driver asks for them.
type processSource struct {
	proc Process
	port int
	buf  []Pkt
	k    int64
}

// Next implements Source.
func (ps *processSource) Next() Pkt {
	for len(ps.buf) == 0 {
		arr := ps.proc.Slice(ps.k)
		ps.k++
		for i := range arr {
			if arr[i].Port == ps.port {
				ps.buf = append(ps.buf, arr[i].Pkt)
			}
		}
		if ps.k > 1<<40 { // a silent pattern would spin forever
			panic("traffic: open-loop pattern generated no arrivals for 2^40 slices")
		}
	}
	pkt := ps.buf[0]
	ps.buf = ps.buf[1:]
	return pkt
}
