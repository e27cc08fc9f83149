package router

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/raw"
	"repro/internal/rotor"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// sharedIndex caches the fault-tolerant configuration index: it is a
// pure function of the 4-port ring, and enumerating the space on every
// router construction would dominate test setup. The FT index keeps the
// 27 healthy configurations in their usual slots (healthy dispatch is
// identical to the plain minimized index) and appends the handful only
// the degraded allocator can reach, so a router can be re-armed for
// degraded operation without regenerating its jump table.
var sharedIndex = sync.OnceValue(func() *rotor.ConfigIndex {
	return rotor.NewConfigIndexFT(4)
})

// sharedMixedIndex caches the §8.6 mixed unicast/multicast space (the
// 16⁴×4 = 262,144-configuration enumeration takes a few hundred ms).
var sharedMixedIndex = sync.OnceValue(func() *rotor.ConfigIndex {
	return rotor.NewMixedConfigIndex(4)
})

// The firmware cost model's calibration constants.
const (
	// allocCycles models the jump-table index computation on the
	// crossbar processors (§6.5).
	allocCycles = 8
	// headerCycles models the ingress IP header verify/update (§4.2).
	headerCycles = 4
	// dramLatency is the off-chip access time in cycles.
	dramLatency = 20
)

// CryptoCyclesPerWord is the egress processor's per-word cost of the
// §8.3 stream cipher when Config.Crypto is set.
const CryptoCyclesPerWord = 2

// Config parameterizes the cycle-level router.
type Config struct {
	// ClockHz is the chip clock (250 MHz prototype).
	ClockHz float64
	// QuantumWords bounds one crossbar fragment (default 256 = one
	// 1,024-byte packet).
	QuantumWords int
	// Table is the forwarding table, loaded into simulated DRAM as a
	// compressed two-level structure for the lookup tiles. Nil installs
	// the canonical four-prefix table (port p owns 10+p/8).
	Table *lookup.Patricia
	// Crypto enables the §8.3 computation-in-fabric extension: payloads
	// are stream-ciphered with CryptoKey on the way out, costing
	// CryptoCyclesPerWord on the egress processors.
	Crypto    bool
	CryptoKey uint32
	// Weights, if non-nil (length 4), give each port's token dwell in
	// quanta — the §8.7 weighted round-robin QoS.
	Weights []int
	// Multicast enables the §8.6 extension: the crossbar runs the mixed
	// unicast/multicast configuration space (51 switch routines instead
	// of 27) with fanout-splitting, and the lookup tiles resolve
	// 224.0.0.0/4 destinations through Groups.
	Multicast bool
	// Groups maps multicast group addresses to egress member masks.
	Groups map[ip.Addr]uint8
	// Watchdog enables the quantum-progress supervisor: if the crossbar
	// stops granting quanta for WatchdogCycles and the wedge can be
	// attributed to exactly one crossbar tile (its processor stopped
	// being stepped — a crash or freeze fault), the router masks that
	// tile out of the token rotation and continues on three ports.
	// Incompatible with Multicast.
	Watchdog bool
	// WatchdogCycles is the no-progress window before the watchdog acts
	// (default 20,000 cycles ≈ 80 µs at 250 MHz).
	WatchdogCycles int64
	// UnderrunQuanta, if > 0, bounds how many consecutive quanta an
	// ingress waits for its line card before aborting the stalled packet;
	// the bound doubles per abort (backoff), and after three aborts the
	// port is declared down. 0 waits forever (flow control only).
	UnderrunQuanta int
	// ReprobeQuanta, if > 0, arms line-flap retry: a port declared down
	// re-probes its line after ReprobeQuanta quanta, doubling the wait on
	// every silent probe (exponential backoff with seeded jitter from
	// ReprobeSeed), and comes back up when line words resume — a
	// transient flap recovers instead of latching the port dead. 0 keeps
	// the latch-forever behavior.
	ReprobeQuanta int
	// ReprobeSeed seeds the per-port xorshift64* jitter on the reprobe
	// backoff; the stream is firmware state, so it replays bit-for-bit.
	ReprobeSeed uint64
	// ReadmitQuanta is the probation window, in quanta, after Restore
	// re-enters a degraded port into token rotation: the re-admitted tile
	// exchanges headers, relays ring traffic, and holds the token, but
	// its egress stays quarantined and its ingress sends only empty
	// headers until the window expires. 0 selects the default (8); < 0
	// disables probation (immediate full service).
	ReadmitQuanta int
	// AutoRestore lets the watchdog re-admit the degraded port when the
	// dead crossbar tile's heartbeat resumes (a thawed freeze, as opposed
	// to a permanent crash). Requires Watchdog.
	AutoRestore bool
	// Events, if non-nil, receives recovery-state-machine transitions
	// (line-down/line-up, degrade, restore-drain, readmit, live,
	// fail-stop).
	Events *trace.EventLog
	// Metrics, if non-nil, arms the telemetry plane: the collector
	// receives one QuantumSample per completed quantum and a copy of
	// every recovery event, and TelemetrySnapshot folds its accumulated
	// state into the exported snapshot. Nil (the default) disables
	// collection; like Events and the raw fault plane, the disabled cost
	// is a nil check on paths that already run.
	Metrics *telemetry.Collector
	// Checkpoint enables input recording at construction so the router
	// can Snapshot (see snapshot.go). Off by default: the log costs
	// memory proportional to the words offered.
	Checkpoint bool
	// Tracer, if set, receives per-tile per-cycle states (Figure 7-3).
	Tracer raw.Tracer
	// Engine selects the chip's cycle engine: raw.EngineRef (the
	// reference interpreter, the zero value) or raw.EngineFast (compiled
	// route tables and macro windows). The fast engine is
	// bit-for-bit identical to the reference — same words, cycle counts,
	// telemetry, and checkpoints — so this is purely a host performance
	// knob.
	Engine raw.Engine
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		ClockHz:      raw.DefaultClockHz,
		QuantumWords: 256,
	}
}

// Stats are the router's internal counters, updated by firmware. Read
// them through Router.Stats(), which returns an immutable snapshot; the
// live struct is router-internal.
type Stats struct {
	// Accepted counts packets that passed ingress validation; Dropped
	// those that failed (bad checksum, TTL, no route).
	Accepted, Dropped [4]int64
	// Denied counts quanta an ingress requested and lost arbitration.
	Denied [4]int64
	// FragsSent counts fragments streamed into the crossbar.
	FragsSent [4]int64
	// PktsIn counts packets fully streamed in; PktsOut packets delivered
	// at egress; Reassembled the multi-fragment subset.
	PktsIn, PktsOut, Reassembled [4]int64
	// Lookups counts route lookups served.
	Lookups [4]int64
	// McastIn counts multicast packets fully served at ingress; McastCopies
	// the egress copies they produced.
	McastIn, McastCopies [4]int64
	// AbortDropped counts packets abandoned by robustness machinery:
	// underrun timeouts, degraded-mode resets, and dead-egress routes.
	AbortDropped [4]int64
	// Underruns counts quanta an ingress idled because its line card had
	// not yet delivered the words the fragment needed.
	Underruns [4]int64
	// Reprobes counts silent line probes on a down port; Recovered counts
	// line-up transitions a probe detected; FlapDrops counts the line
	// words discarded to resynchronize a recovered line to its next
	// packet boundary.
	Reprobes, Recovered, FlapDrops [4]int64
	// FabricLost counts packets that were fully inside the fabric
	// (streamed in, not yet delivered) when a degraded-mode reset
	// discarded all in-flight state.
	FabricLost int64
}

// StatsSnapshot is an immutable, versioned copy of the router's counters
// returned by Stats(). Schema tracks telemetry.SchemaVersion; Cycle is
// the chip cycle the snapshot was taken at. The embedded Stats fields
// are values, so a snapshot never changes as the simulation advances.
//
// MacroWindows, MacroCycles, and MacroDisarms surface the fast engine's
// macro-step engagement (raw.Chip.MacroStats / MacroDisarms): how many
// multi-cycle windows executed, the cycles they covered, and the
// per-cause histogram of declined windows. All zero under the reference
// engine; they are host-engine observability, not part of the
// cross-engine equivalence surface.
type StatsSnapshot struct {
	Schema       int
	Cycle        int64
	MacroWindows int64
	MacroCycles  int64
	MacroDisarms [raw.NumMacroCauses]int64
	Stats
}

// Router is the assembled 4-port Raw router.
type Router struct {
	Chip *raw.Chip
	Mem  *mem.Controller
	cfg  Config
	ci   *rotor.ConfigIndex

	ins  [4]*raw.StaticIn
	outs [4]*raw.EdgeSink

	// Firmware handles, needed by the watchdog and degrade procedure.
	xbars [4]*xbarFW
	ings  [4]*ingressFW
	egrs  [4]*egressFW

	// alloc is the last crossbar allocation, walked for allocFor (see
	// allocate).
	alloc    rotor.Allocation
	allocFor allocKey

	stats Stats

	// lastSampledQ is the last quantum boundary the telemetry plane
	// ingested (see sampleTelemetry in telemetry.go).
	lastSampledQ int64

	// Degraded-mode state: deadPort is the masked crossbar tile (-1
	// healthy); failed means a second wedge (or an unattributable one)
	// stopped the fabric for good; reportPort is the live crossbar whose
	// quantum boundaries the telemetry plane and probation expiry read.
	deadPort   int
	failed     bool
	reportPort int

	// Recovery state (see restore.go). wd is the installed watchdog (nil
	// without cfg.Watchdog); xprogs and lookups retain the healthy
	// switch programs and lookup firmware so Restore can re-install them
	// without regeneration. restoring marks the drain window between
	// Restore and the quantum-boundary reconfiguration; restoreArmed and
	// restoreMark implement the two-interval output-stability check.
	// probationPort is the re-admitted port still in probation (-1 none).
	// readmitQuanta is cfg.ReadmitQuanta resolved (default applied).
	wd            *watchdog
	xprogs        [4]*XbarProgram
	lookups       [4]*lookupFW
	restoring     bool
	restoreArmed  bool
	restoreMark   [4]int64
	probationPort int
	readmitQuanta int
	controls      []control
	lineDownSeen  [4]bool

	// parse buffers for DrainOutput; parsed counts each output stream's
	// absolute parse position and cuts the offsets where a degrade
	// truncated the stream mid-packet.
	parseBuf [4][]uint32
	parsed   [4]int64
	cuts     [4][]int64

	// tableEpoch selects which double-buffered DRAM table the lookup
	// tiles consult (§2.2.1 table management; flipped by UpdateTable).
	tableEpoch int

	// tableLog records every mid-run UpdateTable when cfg.Checkpoint:
	// DRAM pokes happen outside the chip's input log, so checkpoint
	// restore re-applies them at the recorded cycles (raw.ReplayOp).
	tableLog []tableUpdate

	// offerBuf holds the wire words of the packet OfferPacket offers;
	// snapBuf the RTRCKPT1 fields WriteSnapshot writes around the chip
	// blob. Both are reused, so neither allocates in steady state.
	offerBuf []raw.Word
	snapBuf  []byte
}

// New builds and programs the router.
func New(cfg Config) (*Router, error) {
	if cfg.ClockHz == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Weights != nil && len(cfg.Weights) != 4 {
		return nil, fmt.Errorf("router: weights must have 4 entries, got %d", len(cfg.Weights))
	}
	if cfg.Watchdog && cfg.Multicast {
		return nil, fmt.Errorf("router: watchdog degraded mode supports unicast only")
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 20000
	}
	if cfg.AutoRestore && !cfg.Watchdog {
		return nil, fmt.Errorf("router: AutoRestore requires Watchdog")
	}
	chipCfg := raw.DefaultConfig()
	chipCfg.ClockHz = cfg.ClockHz
	chipCfg.Tracer = cfg.Tracer
	chipCfg.Engine = cfg.Engine
	r := &Router{
		Chip:          raw.NewChip(chipCfg),
		cfg:           cfg,
		ci:            sharedIndex(),
		deadPort:      -1,
		probationPort: -1,
	}
	switch {
	case cfg.ReadmitQuanta > 0:
		r.readmitQuanta = cfg.ReadmitQuanta
	case cfg.ReadmitQuanta == 0:
		r.readmitQuanta = 8
	}
	if cfg.Multicast {
		r.ci = sharedMixedIndex()
	}
	r.Mem = mem.Attach(r.Chip, dramLatency)
	// DRAM latency spikes from an installed fault plane (zero-cost nil
	// guard when no faults are configured).
	r.Mem.ExtraLatency = r.Chip.FaultDRAMPenalty

	// Forwarding table into DRAM.
	table := cfg.Table
	if table == nil {
		table = CanonicalTable()
	}
	r.installTable(TableImageAt(table, 0))

	for p := 0; p < 4; p++ {
		pt := Layout[p]
		xprog, err := GenXbarProgram(p, r.ci)
		if err != nil {
			return nil, err
		}
		iprog, err := GenIngressProgram(p)
		if err != nil {
			return nil, err
		}
		eprog, err := GenEgressProgram(p)
		if err != nil {
			return nil, err
		}
		r.ins[p] = r.Chip.StaticIn(pt.Ingress, pt.InSide)
		r.outs[p] = r.Chip.StaticOut(pt.Egress, pt.OutSide)
		r.xprogs[p] = xprog
		r.xbars[p] = &xbarFW{rt: r, port: p, prog: xprog, dead: -1}
		r.ings[p] = &ingressFW{
			rt: r, port: p, prog: iprog, in: r.ins[p], dead: -1,
			rng: reprobeSeed(cfg.ReprobeSeed, p),
		}
		r.egrs[p] = &egressFW{rt: r, port: p, prog: eprog}
		r.lookups[p] = &lookupFW{rt: r, port: p}
		r.program(p, xprog)
	}
	if cfg.Watchdog {
		r.installWatchdog()
	}
	// The router is the chip's single step hook (see restore.go): Tick
	// dispatches to every router-level observer — watchdog, scheduled
	// recovery controls, restore quiescence checks, probation expiry, and
	// event/telemetry sampling — and NextDue declares the next cycle any
	// of them must observe, so the fast engine can macro-step the gaps
	// between quantum and mask boundaries instead of disarming.
	r.Chip.AddStepHook(r)
	if cfg.Checkpoint {
		if err := r.Chip.EnableRecording(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// CanonicalTable returns the experiments' route table: port p owns
// (10+p).0.0.0/8, plus a default route to port 0.
func CanonicalTable() *lookup.Patricia {
	return BindPorts(4, func(e int) lookup.NextHop { return lookup.NextHop(e) })
}

// Config returns the router configuration.
func (r *Router) Config() Config { return r.cfg }

// Stats returns an immutable snapshot of the router's counters. The
// copy is cheap (a few hundred bytes) and safe to hold across Run calls:
// it never changes as the simulation advances.
func (r *Router) Stats() StatsSnapshot {
	windows, cycles := r.Chip.MacroStats()
	return StatsSnapshot{
		Schema:       telemetry.SchemaVersion,
		Cycle:        r.Chip.Cycle(),
		MacroWindows: windows,
		MacroCycles:  cycles,
		MacroDisarms: r.Chip.MacroDisarms(),
		Stats:        r.stats,
	}
}

// UpdateTable installs a new forwarding table while the router forwards
// (§2.2.1: "the network processor builds a forwarding table for each
// forwarding engine"). The image is DMA'd into the idle epoch's DRAM
// region and the lookup tiles switch over atomically at their next
// lookup. That region held the table before last, so the install drops
// its lines from the lookup caches; the first lookups miss to DRAM.
func (r *Router) UpdateTable(t *lookup.Patricia) {
	next := r.tableEpoch + 1
	segs := TableImageAt(t, next)
	r.installTable(segs)
	r.tableEpoch = next
	if r.cfg.Checkpoint {
		r.tableLog = append(r.tableLog, tableUpdate{cycle: r.Chip.Cycle(), segs: segs})
	}
}

// tableUpdate is one recorded UpdateTable: the chip cycle it happened at
// (between Run calls) and the DRAM image it poked.
type tableUpdate struct {
	cycle int64
	segs  []TableSegment
}

// program reprograms port p's four tiles between cycles: it discards
// their queued micro-ops and static-network words, then installs the
// port's switch programs and firmware, with xprog on the crossbar tile.
// A nil xprog parks the port instead: no firmware, and the park program
// on every switch. New, Degrade and a restore's completion all program
// ports here; each resets the firmware state it owns itself.
func (r *Router) program(p int, xprog *XbarProgram) {
	var fws [4]raw.Firmware
	park := CompiledParkProgram()
	progs := [4]*raw.CompiledProgram{park, park, park, park}
	if xprog != nil {
		fws = [4]raw.Firmware{r.ings[p], r.lookups[p], r.xbars[p], r.egrs[p]}
		progs = [4]*raw.CompiledProgram{
			r.ings[p].prog.Compiled, CompiledLookupProgram(p), xprog.Compiled, r.egrs[p].prog.Compiled,
		}
	}
	for i, tile := range portTiles(p) {
		t := r.Chip.Tile(tile)
		t.Exec().Reset()
		t.ResetStatic(0)
		t.Exec().SetFirmware(fws[i])
		t.SetCompiledSwitchProgram(progs[i])
	}
}

// InputPins exposes input port p's pin-level word stream (multi-chip
// composition and tests).
func (r *Router) InputPins(p int) *raw.StaticIn { return r.ins[p] }

// OutputSink exposes output port p's pin-level word sink.
func (r *Router) OutputSink(p int) *raw.EdgeSink { return r.outs[p] }

// OfferPacket streams a packet's words into input port p's line buffer.
func (r *Router) OfferPacket(p int, pkt *ip.Packet) {
	b := slices.Grow(r.offerBuf[:0], pkt.LenWords())
	for _, w := range pkt.Header.Marshal() {
		b = append(b, raw.Word(w))
	}
	for _, w := range pkt.Payload {
		b = append(b, raw.Word(w))
	}
	r.offerBuf = b
	r.ins[p].Push(b...)
}

// InputBacklogWords returns the words waiting on input port p's pins.
func (r *Router) InputBacklogWords(p int) int { return r.ins[p].Len() }

// Run advances the chip n cycles.
func (r *Router) Run(n int64) { r.Chip.Run(n) }

// Cycle returns the simulated cycle count.
func (r *Router) Cycle() int64 { return r.Chip.Cycle() }

// DrainOutput parses the packets that left output port p since the last
// call. Partial trailing packets are kept for the next call. Packets
// truncated at the pins by a degraded-mode reset (recorded as cut
// offsets) are discarded silently — they are already accounted in
// Stats.FabricLost.
func (r *Router) DrainOutput(p int) ([]ip.Packet, error) {
	words := r.outs[p].DrainWords()
	all := slices.Grow(r.parseBuf[p], len(words))
	for _, w := range words {
		all = append(all, uint32(w))
	}
	r.parseBuf[p] = all
	var pkts []ip.Packet
	buf := all
	for {
		// Words available before the next degrade cut, if any.
		for len(r.cuts[p]) > 0 && r.cuts[p][0] <= r.parsed[p] {
			r.cuts[p] = r.cuts[p][1:]
		}
		limit, cutActive := len(buf), false
		if len(r.cuts[p]) > 0 {
			if avail := int(r.cuts[p][0] - r.parsed[p]); avail <= limit {
				limit, cutActive = avail, true
			}
		}
		discardToCut := func() {
			buf = buf[limit:]
			r.parsed[p] += int64(limit)
			r.cuts[p] = r.cuts[p][1:]
		}
		if limit < ip.HeaderWords {
			if cutActive {
				discardToCut()
				continue
			}
			break
		}
		h, err := ip.Unmarshal(buf[:limit])
		n := 0
		if err == nil {
			n = h.FrameWords()
		}
		if err != nil || (cutActive && n > limit) {
			if cutActive {
				discardToCut()
				continue
			}
			return pkts, fmt.Errorf("router: output %d stream corrupt: %w", p, err)
		}
		if len(buf) < n {
			break
		}
		pkt, perr := ip.ParsePacket(buf[:n])
		if perr != nil {
			if cutActive {
				discardToCut()
				continue
			}
			return pkts, fmt.Errorf("router: output %d packet corrupt: %w", p, perr)
		}
		pkts = append(pkts, pkt)
		buf = buf[n:]
		r.parsed[p] += int64(n)
	}
	// Keep the unparsed tail at the front, so the next drain appends in
	// place instead of regrowing the buffer.
	r.parseBuf[p] = all[:copy(all, buf)]
	return pkts, nil
}

// OutputWords returns the total words ever emitted on output p.
func (r *Router) OutputWords(p int) int64 { return r.outs[p].Count() }

// TotalPktsOut sums delivered packets.
func (r *Router) TotalPktsOut() int64 {
	var t int64
	for p := 0; p < 4; p++ {
		t += r.stats.PktsOut[p]
	}
	return t
}

// ThroughputGbps converts delivered output words over the run so far into
// gigabits per second at the configured clock.
func (r *Router) ThroughputGbps() float64 {
	var words int64
	for p := 0; p < 4; p++ {
		words += r.OutputWords(p)
	}
	return stats.Gbps(words*4, r.Chip.Cycle(), r.cfg.ClockHz)
}

// Mpps converts delivered packets over the run so far into millions of
// packets per second.
func (r *Router) Mpps() float64 {
	return stats.Mpps(r.TotalPktsOut(), r.Chip.Cycle(), r.cfg.ClockHz)
}
