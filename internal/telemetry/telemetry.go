// Package telemetry is the router's unified observability plane: a
// low-overhead, always-on counter/metrics layer spanning the raw chip,
// the rotor allocation, the router firmware, and the fault plane.
//
// The design follows the two observability lessons of the switching
// literature the reproduction leans on. The Tiny Tera work showed that
// per-port occupancy and scheduler-decision statistics are the primary
// tool for validating a crossbar design; Data Path Processing in Fast
// Programmable Routers motivates cheap always-on counters on the hot
// path. Concretely:
//
//   - Per-quantum counters: every completed quantum records which ports
//     requested, which were granted, the granted fragment words, and the
//     drops charged during that quantum — the scheduler-decision record.
//   - Histograms: token-wait (quanta between consecutive grants, per
//     port) and blocked cycles per quantum (per tile), in power-of-two
//     buckets so observation is a shift and an increment.
//   - Gauges: per-port link utilization (output words per cycle),
//     derived at snapshot time from counters the chip already keeps.
//   - Flight recorder: fixed-size rings of the last N quanta and the
//     last M typed recovery events (trace.EventKind), so a post-mortem
//     always has the final seconds of scheduler history.
//
// Cost model: a nil *Collector is the disabled plane — every router hook
// guards on it exactly like raw.FaultPlane, so disabled cost is one
// predictable branch per quantum boundary check. Enabled cost is
// amortized per quantum (hundreds of cycles), not per cycle, and
// RecordQuantum performs no allocation: the rings are preallocated and
// the histograms are fixed arrays.
//
// Determinism: the collector is fed only from the router's step hook,
// between cycles, with simulated values that are bit-for-bit identical
// on either engine, so every export is too.
package telemetry

import "repro/internal/trace"

// SchemaVersion is the telemetry snapshot schema. Any change to an
// exported field name, wire name, or bucket layout bumps it.
// v2: fabric healing plane — trunk samples gained retrans/frames/acked,
// fabric snapshots gained dead_trunks and the heal record, and the
// event vocabulary gained trunk-kill/trunk-restore/heal-reroute/partition.
// v3: engine observability — snapshots carry the fast engine's
// macro-step engagement (macro_windows/macro_cycles) and the per-cause
// disarm histogram (macro_disarms). Always zero under the reference
// engine; excluded (normalized out) from cross-engine equivalence
// comparisons.
// v4: one metric-family table renders CSV and Prometheus, so both carry
// every family. Prometheus gains clock_hz, eight per-port counters
// (reassembled … words_in), fabric externals, trunk frames/acked and
// heal retrans_words/pending_words; CSV gains histogram buckets, event
// totals and the fabric's dead counts, one section per label set
// (#tile_cycles split from #tiles; #trunks one row per direction).
// Event totals are kept per kind by the producer (JSONL event_total
// records) instead of being recounted from the 64-entry ring, and a
// daemon's snapshot carries the serve plane in every format.
// v5: parked_tile_cycles (Prometheus raw_router_parked_tile_cycles_total),
// the tile steps the fast engine's parking skipped; host-side like the
// macro fields, zero under the reference engine and cleared by ZeroHost.
const SchemaVersion = 5

// NumPorts is the paper router's port count; the plane is sized for it.
const NumPorts = 4

// NumTiles is the 4x4 prototype's tile count.
const NumTiles = 16

// Config sizes the flight recorder.
type Config struct {
	// RingQuanta is the per-quantum flight-recorder depth (default 256
	// quanta — about one paper packet time each).
	RingQuanta int
	// RingEvents is the typed-event ring depth (default 64).
	RingEvents int
}

// QuantumSample is what the router pushes once per completed quantum:
// the scheduler decision plus cumulative counters sampled at the
// boundary. Cumulative inputs let the collector compute deltas without
// reaching back into router internals.
type QuantumSample struct {
	// Quantum is the crossbar's completed-quantum count; Cycle the chip
	// cycle the boundary was observed on.
	Quantum, Cycle int64
	// Token is the arbitration token's owner during the quantum.
	Token int
	// ReqMask/GrantMask: bit p set if port p requested / was granted.
	ReqMask, GrantMask uint8
	// FragWords is the granted fragment length per port (0 if idle).
	FragWords [NumPorts]int
	// Dropped is the cumulative per-port drop count (validation failures
	// plus robustness aborts) at the boundary.
	Dropped [NumPorts]int64
	// TileBlocked is each tile's cumulative blocked-cycle count
	// (stalled on send, receive, or cache miss) at the boundary.
	TileBlocked [NumTiles]int64
}

// QuantumRecord is one flight-recorder entry: the per-quantum deltas
// derived from consecutive samples.
type QuantumRecord struct {
	Quantum int64 `json:"q"`
	Cycle   int64 `json:"cycle"`
	Token   uint8 `json:"token"`
	// ReqMask/GrantMask: bit p set if port p requested / was granted.
	ReqMask   uint8 `json:"req"`
	GrantMask uint8 `json:"grant"`
	// Words is the granted fragment words per port this quantum.
	Words [NumPorts]int32 `json:"words"`
	// Drops is the drops charged per port during this quantum.
	Drops [NumPorts]int32 `json:"drops"`
}

// Collector accumulates the metrics plane. The zero Config is usable;
// a nil *Collector is the disabled plane (all methods nil-guard).
type Collector struct {
	cfg Config

	quanta       int64
	grants       [NumPorts]int64
	denies       [NumPorts]int64
	wordsGranted [NumPorts]int64
	tokenWait    [NumPorts]Histogram
	blocked      [NumTiles]Histogram
	lastGrantQ   [NumPorts]int64

	prev     QuantumSample
	havePrev bool

	ring      []QuantumRecord
	ringStart int
	ringLen   int

	events  []trace.Event
	evStart int
	evLen   int
	// evTotals counts every recorded event by kind; the ring above
	// keeps only the last RingEvents of them.
	evTotals [trace.NumEventKinds]int64
}

// New builds a collector; zero Config fields select the defaults.
func New(cfg Config) *Collector {
	if cfg.RingQuanta <= 0 {
		cfg.RingQuanta = 256
	}
	if cfg.RingEvents <= 0 {
		cfg.RingEvents = 64
	}
	c := &Collector{cfg: cfg}
	c.ring = make([]QuantumRecord, cfg.RingQuanta)
	c.events = make([]trace.Event, cfg.RingEvents)
	for p := range c.lastGrantQ {
		c.lastGrantQ[p] = -1
	}
	return c
}

// Enabled reports whether the plane is collecting (false on nil).
func (c *Collector) Enabled() bool { return c != nil }

// Quanta returns the number of quantum boundaries recorded.
func (c *Collector) Quanta() int64 {
	if c == nil {
		return 0
	}
	return c.quanta
}

// RecordQuantum ingests one quantum boundary. It must be called from the
// simulation's main goroutine, with samples in quantum order. It
// performs no allocation.
func (c *Collector) RecordQuantum(s QuantumSample) {
	if c == nil {
		return
	}
	c.quanta++

	rec := QuantumRecord{
		Quantum:   s.Quantum,
		Cycle:     s.Cycle,
		Token:     uint8(s.Token),
		ReqMask:   s.ReqMask,
		GrantMask: s.GrantMask,
	}
	for p := 0; p < NumPorts; p++ {
		bit := uint8(1) << p
		if s.GrantMask&bit != 0 {
			c.grants[p]++
			c.wordsGranted[p] += int64(s.FragWords[p])
			rec.Words[p] = int32(s.FragWords[p])
			// Token wait: quanta since this port's previous grant
			// (first grant waits from quantum 0).
			wait := s.Quantum - c.lastGrantQ[p] - 1
			if c.lastGrantQ[p] < 0 {
				wait = s.Quantum - 1
				if wait < 0 {
					wait = 0
				}
			}
			c.tokenWait[p].Observe(wait)
			c.lastGrantQ[p] = s.Quantum
		} else if s.ReqMask&bit != 0 {
			c.denies[p]++
		}
		if c.havePrev {
			rec.Drops[p] = int32(s.Dropped[p] - c.prev.Dropped[p])
		} else {
			rec.Drops[p] = int32(s.Dropped[p])
		}
	}
	for t := 0; t < NumTiles; t++ {
		d := s.TileBlocked[t]
		if c.havePrev {
			d -= c.prev.TileBlocked[t]
		}
		c.blocked[t].Observe(d)
	}
	c.prev = s
	c.havePrev = true

	// Ring push (overwrite oldest when full).
	if c.ringLen < len(c.ring) {
		c.ring[(c.ringStart+c.ringLen)%len(c.ring)] = rec
		c.ringLen++
	} else {
		c.ring[c.ringStart] = rec
		c.ringStart = (c.ringStart + 1) % len(c.ring)
	}
}

// RecordEvent ingests one typed recovery event into the flight recorder.
// Nil-safe; main goroutine only.
func (c *Collector) RecordEvent(e trace.Event) {
	if c == nil {
		return
	}
	if int(e.Kind) < len(c.evTotals) {
		c.evTotals[e.Kind]++
	}
	if c.evLen < len(c.events) {
		c.events[(c.evStart+c.evLen)%len(c.events)] = e
		c.evLen++
	} else {
		c.events[c.evStart] = e
		c.evStart = (c.evStart + 1) % len(c.events)
	}
}

// RecentQuanta copies the flight-recorder ring, oldest first.
func (c *Collector) RecentQuanta() []QuantumRecord {
	if c == nil || c.ringLen == 0 {
		return nil
	}
	out := make([]QuantumRecord, c.ringLen)
	for i := 0; i < c.ringLen; i++ {
		out[i] = c.ring[(c.ringStart+i)%len(c.ring)]
	}
	return out
}

// RecentEvents copies the typed-event ring, oldest first.
func (c *Collector) RecentEvents() []trace.Event {
	if c == nil || c.evLen == 0 {
		return nil
	}
	out := make([]trace.Event, c.evLen)
	for i := 0; i < c.evLen; i++ {
		out[i] = c.events[(c.evStart+i)%len(c.events)]
	}
	return out
}
