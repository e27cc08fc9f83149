package fault_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// The chaos harness: randomized fault schedules crossed with traffic,
// asserting the three properties the robustness layer promises —
// conservation (every offered packet is delivered or counted in exactly
// one drop bucket), no duplication, and bit-for-bit replay of the whole
// scenario.

type chaosResult struct {
	fp        uint64
	stats     router.Stats
	dead      int
	failed    bool
	offered   int64
	delivered []ip.Packet
	sent      map[uint16]ip.Packet
	windows   int64 // macro windows opened (host-engine observability)
}

// runChaos runs one full scenario: build a router with the given cycle
// engine, install the schedule, feed seeded traffic for feedCycles, then
// drain for drainCycles and fingerprint everything observable.
func runChaos(t *testing.T, sched *fault.Schedule, watchdog bool, eng raw.Engine,
	trafficSeed uint64, feedCycles, drainCycles int) *chaosResult {
	t.Helper()
	cfg := router.DefaultConfig()
	cfg.Engine = eng
	if watchdog {
		cfg.Watchdog = true
		cfg.WatchdogCycles = 4000
	}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Chip.InstallFaults(fault.NewInjector(sched, 16))

	rng := traffic.NewRNG(trafficSeed)
	id := uint16(0)
	res := &chaosResult{sent: map[uint16]ip.Packet{}}
	sizes := []int{64, 128, 256, 512}
	for c := 0; c < feedCycles; c += 200 {
		for p := 0; p < 4; p++ {
			for r.InputBacklogWords(p) < 2048 {
				id++
				pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)),
					traffic.PortAddr(rng.Intn(4), uint32(id)), 64, sizes[rng.Intn(4)], id)
				res.sent[id] = pkt
				r.OfferPacket(p, &pkt)
				res.offered++
			}
		}
		r.Run(200)
	}
	r.Run(int64(drainCycles))

	res.stats = r.Stats().Stats
	res.dead = r.DeadPort()
	res.failed = r.Failed()
	res.windows, _ = r.Chip.MacroStats()
	h := fnv.New64a()
	// Fingerprint the simulation-visible counters (the embedded Stats),
	// not the full StatsSnapshot: its macro-step engagement fields are
	// host-engine observability (the disarm histogram only accumulates
	// under the fast engine) and are excluded from the equivalence
	// surface by design.
	fmt.Fprintf(h, "cycle=%d dead=%d failed=%v stats=%+v", r.Cycle(), res.dead, res.failed, res.stats)
	for p := 0; p < 4; p++ {
		fmt.Fprintf(h, " out%d=%d q%d=%d", p, r.OutputWords(p), p, r.Quanta(p))
		pkts, err := r.DrainOutput(p)
		if err != nil {
			t.Fatalf("output %d corrupt: %v", p, err)
		}
		for _, pk := range pkts {
			fmt.Fprintf(h, " %d:%d:%d", p, pk.Header.ID, pk.Header.TotalLen)
			_ = binary.Write(h, binary.LittleEndian, pk.Payload)
		}
		res.delivered = append(res.delivered, pkts...)
	}
	res.fp = h.Sum64()
	return res
}

// checkNoDuplicates asserts unicast delivery: every delivered ID was sent
// and appears at most once.
func checkNoDuplicates(t *testing.T, res *chaosResult) {
	t.Helper()
	seen := map[uint16]bool{}
	for _, pk := range res.delivered {
		if _, ok := res.sent[pk.Header.ID]; !ok {
			t.Fatalf("delivered unknown packet id %d", pk.Header.ID)
		}
		if seen[pk.Header.ID] {
			t.Fatalf("packet id %d delivered twice", pk.Header.ID)
		}
		seen[pk.Header.ID] = true
	}
}

// TestChaosRecoverableFaults: schedules drawn only from the
// conservation-neutral classes (stalls, flaps, freezes, DRAM spikes)
// slow the fabric down but must not lose, duplicate, or corrupt a single
// packet.
func TestChaosRecoverableFaults(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sched := fault.Random(seed, fault.RandomOptions{
			Horizon: 10000, MaxStalls: 6, MaxFlaps: 3, MaxFreezes: 2,
			MaxDRAM: 2, MaxStallCycles: 1200,
		})
		res := runChaos(t, sched, false, raw.EngineRef, seed+100, 15000, 60000)
		if int64(len(res.delivered)) != res.offered {
			t.Fatalf("seed %d (%q): delivered %d of %d offered; stats %+v",
				seed, sched, len(res.delivered), res.offered, res.stats)
		}
		checkNoDuplicates(t, res)
		for _, pk := range res.delivered {
			want := res.sent[pk.Header.ID]
			for i := range want.Payload {
				if pk.Payload[i] != want.Payload[i] {
					t.Fatalf("seed %d: id %d payload word %d corrupted", seed, pk.Header.ID, i)
				}
			}
		}
	}
}

// TestChaosReplayBitForBit: one randomized scenario run twice must
// produce identical fingerprints over stats, output words, quanta, and
// delivered payloads.
func TestChaosReplayBitForBit(t *testing.T) {
	sched := fault.Random(7, fault.RandomOptions{
		Horizon: 8000, MaxStalls: 5, MaxFlaps: 2, MaxFreezes: 1,
		MaxDRAM: 2, MaxStallCycles: 1000,
	})
	a := runChaos(t, sched, false, raw.EngineRef, 42, 12000, 50000)
	b := runChaos(t, sched, false, raw.EngineRef, 42, 12000, 50000)
	if a.fp != b.fp {
		t.Fatalf("same-seed replay diverged: %x vs %x", a.fp, b.fp)
	}
}

// TestChaosCrashDegrade: a crossbar crash buried in recoverable noise.
// The watchdog must attribute it, the fabric must degrade (not halt),
// conservation must hold at the fabric boundary, and the whole scenario
// — including the watchdog's firing cycle — must replay bit-for-bit.
func TestChaosCrashDegrade(t *testing.T) {
	noise := fault.Random(5, fault.RandomOptions{
		Horizon: 8000, MaxStalls: 4, MaxFlaps: 2, MaxFreezes: 0,
		MaxDRAM: 1, MaxStallCycles: 800,
	})
	sched := &fault.Schedule{Events: append(noise.Events,
		fault.MustParse("crash@5000:t10").Events...)}

	run := func() *chaosResult {
		return runChaos(t, sched, true, raw.EngineRef, 9, 18000, 70000)
	}
	a := run()
	if a.dead != 2 { // tile 10 is port 2's crossbar
		t.Fatalf("dead port %d (failed=%v), want 2; stats %+v", a.dead, a.failed, a.stats)
	}
	if a.failed {
		t.Fatal("router fail-stopped instead of degrading")
	}
	checkNoDuplicates(t, a)
	var in, out int64
	for p := 0; p < 4; p++ {
		in += a.stats.PktsIn[p]
		out += a.stats.PktsOut[p]
	}
	if in != out+a.stats.FabricLost {
		t.Fatalf("conservation: PktsIn %d != PktsOut %d + FabricLost %d",
			in, out, a.stats.FabricLost)
	}
	if out <= a.stats.PktsOut[2] {
		t.Fatal("surviving ports forwarded nothing")
	}

	b := run()
	if a.fp != b.fp {
		t.Fatalf("crash scenario replay diverged: %x vs %x", a.fp, b.fp)
	}
}

// TestChaosCorruptionAndPinDrops: precisely aimed bit flips and pin-level
// word loss. A header flip must be rejected by the ingress checksum and
// counted once in Stats.Dropped; a payload flip must deliver (exactly
// that bit wrong); a whole packet lost at the pins simply never enters
// the accounting. Everything else is delivered intact, and the scenario
// replays bit-for-bit.
func TestChaosCorruptionAndPinDrops(t *testing.T) {
	const pktWords = 64 // 256-byte packets
	// Port 0's line enters tile 4 from the west; port 2's enters tile 11
	// from the east (Figure 7-2).
	sched := fault.MustParse(
		"corrupt:t4.w.w194.b9;" + // packet 3 (words 192..255), header word 2
			"corrupt:t4.w.w468.b4;" + // packet 7, wire word 20 = payload[15]
			"drop:t11.e.w320+64") // port 2 packet 5, dropped whole at the pins

	const perPort = 12
	run := func() (*chaosResult, *router.Router) {
		r, err := router.New(router.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r.Chip.InstallFaults(fault.NewInjector(sched, 16))
		res := &chaosResult{sent: map[uint16]ip.Packet{}}
		for p := 0; p < 4; p++ {
			for k := 0; k < perPort; k++ {
				id := uint16(p*100 + k + 1)
				dst := (p + 1 + k%3) % 4
				pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(dst, uint32(id)), 64, pktWords*4, id)
				res.sent[id] = pkt
				r.OfferPacket(p, &pkt)
				res.offered++
			}
		}
		r.Run(60000)
		res.stats = r.Stats().Stats
		h := fnv.New64a()
		// Embedded Stats only: macro engagement fields are host-engine
		// observability, outside the equivalence surface.
		fmt.Fprintf(h, "stats=%+v", res.stats)
		for p := 0; p < 4; p++ {
			pkts, err := r.DrainOutput(p)
			if err != nil {
				t.Fatalf("output %d: %v", p, err)
			}
			for _, pk := range pkts {
				fmt.Fprintf(h, " %d:%d", p, pk.Header.ID)
				_ = binary.Write(h, binary.LittleEndian, pk.Payload)
			}
			res.delivered = append(res.delivered, pkts...)
		}
		res.fp = h.Sum64()
		return res, r
	}

	a, _ := run()
	if got := a.stats.Dropped[0]; got != 1 {
		t.Fatalf("Dropped[0] = %d, want 1 (header corruption); stats %+v", got, a.stats)
	}
	// offered − 1 header-corrupt − 1 pin-dropped packets deliver.
	if int64(len(a.delivered)) != a.offered-2 {
		t.Fatalf("delivered %d, want %d; stats %+v", len(a.delivered), a.offered-2, a.stats)
	}
	checkNoDuplicates(t, a)
	for _, pk := range a.delivered {
		if pk.Header.ID == 4 || pk.Header.ID == 206 {
			t.Fatalf("packet id %d should have been lost", pk.Header.ID)
		}
		want := a.sent[pk.Header.ID]
		for i := range want.Payload {
			w := want.Payload[i]
			if pk.Header.ID == 8 && i == 15 {
				w ^= 1 << 4 // the injected payload flip
			}
			if pk.Payload[i] != w {
				t.Fatalf("id %d payload word %d: got %#x want %#x", pk.Header.ID, i, pk.Payload[i], w)
			}
		}
	}

	b, _ := run()
	if a.fp != b.fp {
		t.Fatalf("replay diverged: %x vs %x", a.fp, b.fp)
	}
}

// TestInjectorDisabledIsInert: sanity — an empty schedule must not change
// a single observable output word (guards the near-zero-cost claim
// functionally; BenchmarkFaultHookOverhead guards it in time).
func TestInjectorDisabledIsInert(t *testing.T) {
	run := func(install bool) uint64 {
		r, err := router.New(router.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if install {
			r.Chip.InstallFaults(fault.NewInjector(&fault.Schedule{}, 16))
		}
		pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(2, 7), 64, 512, 3)
		r.OfferPacket(0, &pkt)
		r.Run(20000)
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v %d", r.Stats().Stats, r.OutputWords(2))
		return h.Sum64()
	}
	if run(false) != run(true) {
		t.Fatal("an empty fault schedule changed router behavior")
	}
}
