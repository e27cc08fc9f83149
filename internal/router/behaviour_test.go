package router_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

const behaviourGolden = "testdata/behaviour.golden"

var update = flag.Bool("update", false, "rewrite "+behaviourGolden+" from this run")

// A behaviourCase is one router scenario of the behaviour golden. setup
// configures the router, faults is its fault schedule (empty for none),
// drive feeds and runs it, and check rejects a run that missed the
// firmware branch the case exists for.
type behaviourCase struct {
	name   string
	setup  func(cfg *router.Config)
	faults string
	drive  func(r *router.Router)
	check  func(r *router.Router) error
}

// behaviourGen returns a packet generator: port p's next packet has a
// size drawn from sizes, a destination from dst and the TOS byte tos(p).
func behaviourGen(seed uint64, sizes []int, dst func(rng *traffic.RNG, p int, id uint16) ip.Addr, tos func(p int) uint8) func(p int) ip.Packet {
	rng := traffic.NewRNG(seed)
	id := uint16(0)
	return func(p int) ip.Packet {
		id++
		size := sizes[rng.Intn(len(sizes))]
		pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), dst(rng, p, id), 64, size, id)
		if tos != nil {
			pkt.Header.TOS = tos(p)
		}
		return pkt
	}
}

func uniformDst(rng *traffic.RNG, _ int, id uint16) ip.Addr {
	return traffic.PortAddr(rng.Intn(4), uint32(id))
}

func permDst(_ *traffic.RNG, p int, id uint16) ip.Addr {
	return traffic.PortAddr((p+1)%4, uint32(id))
}

// behaviourFeed runs cycles in 500-cycle slices, topping the ports in
// ports up to a 2,048-word backlog from gen before each slice.
func behaviourFeed(r *router.Router, cycles int64, ports []int, gen func(p int) ip.Packet) {
	for c := int64(0); c < cycles; c += 500 {
		for _, p := range ports {
			for r.InputBacklogWords(p) < 2048 {
				pkt := gen(p)
				r.OfferPacket(p, &pkt)
			}
		}
		r.Run(500)
	}
}

var allPorts = []int{0, 1, 2, 3}

// pushWords pushes raw frame words onto port p's pins.
func pushWords(r *router.Router, p int, ws []uint32) {
	for _, w := range ws {
		r.InputPins(p).Push(raw.Word(w))
	}
}

func withMetrics(cfg *router.Config) { cfg.Metrics = telemetry.New(telemetry.Config{}) }

// longPrefixTable adds a /20 and a /24, which the lookup tiles resolve
// with a second probe into a DRAM chunk, to the canonical table.
func longPrefixTable(p20, p24 lookup.NextHop) *lookup.Patricia {
	tb := router.CanonicalTable()
	if err := tb.Insert(uint32(ip.AddrFrom(10, 1, 16, 0)), 20, p20); err != nil {
		panic(err)
	}
	if err := tb.Insert(uint32(ip.AddrFrom(11, 7, 8, 0)), 24, p24); err != nil {
		panic(err)
	}
	return tb
}

func behaviourCases() []behaviourCase {
	return []behaviourCase{
		{
			// A checksum-corrupt frame and a TTL-1 packet take the drop
			// and drain path ahead of the uniform stream.
			name:  "uniform-64B",
			setup: withMetrics,
			drive: func(r *router.Router) {
				bad := ip.NewPacket(traffic.PortAddr(2, 1), traffic.PortAddr(1, 2), 64, 256, 1)
				ws := bad.Words()
				ws[3] ^= 0xdeadbeef
				pushWords(r, 2, ws)
				dying := ip.NewPacket(traffic.PortAddr(3, 1), traffic.PortAddr(0, 2), 1, 128, 2)
				r.OfferPacket(3, &dying)
				behaviourFeed(r, 30000, allPorts, behaviourGen(1, []int{64}, uniformDst, nil))
			},
			check: func(r *router.Router) error {
				if st := r.Stats(); st.Dropped[2] != 1 || st.Dropped[3] != 1 {
					return fmt.Errorf("dropped %v, want one on ports 2 and 3", st.Dropped)
				}
				return nil
			},
		},
		{
			name: "perm-1024B",
			drive: func(r *router.Router) {
				behaviourFeed(r, 30000, allPorts, behaviourGen(2, []int{1024}, permDst, nil))
			},
		},
		{
			name:  "reassembly-1024B-q64",
			setup: func(cfg *router.Config) { cfg.QuantumWords = 64 },
			drive: func(r *router.Router) {
				behaviourFeed(r, 30000, allPorts, behaviourGen(3, []int{1024}, uniformDst, nil))
			},
			check: func(r *router.Router) error {
				if r.Stats().Reassembled == [4]int64{} {
					return fmt.Errorf("no packet was reassembled")
				}
				return nil
			},
		},
		{
			// 1,500 B packets span two quanta: they take the reassembly
			// path, the rest the cipher.
			name: "crypto",
			setup: func(cfg *router.Config) {
				withMetrics(cfg)
				cfg.Crypto = true
				cfg.CryptoKey = 0x5eed
			},
			drive: func(r *router.Router) {
				behaviourFeed(r, 30000, allPorts, behaviourGen(4, []int{64, 256, 1024, 1500}, uniformDst, nil))
			},
		},
		{
			// Group 224.9.9.9 has an empty mask and 224.7.7.7 none, so
			// both drop; a 2,048 B multicast packet is longer than one
			// quantum and drops too.
			name: "multicast",
			setup: func(cfg *router.Config) {
				withMetrics(cfg)
				cfg.Multicast = true
				cfg.Groups = map[ip.Addr]uint8{
					ip.AddrFrom(224, 1, 2, 3): 0b1011,
					ip.AddrFrom(224, 5, 5, 5): 0b0100,
					ip.AddrFrom(224, 9, 9, 9): 0,
				}
			},
			drive: func(r *router.Router) {
				groups := []ip.Addr{
					ip.AddrFrom(224, 1, 2, 3), ip.AddrFrom(224, 5, 5, 5),
					ip.AddrFrom(224, 9, 9, 9), ip.AddrFrom(224, 7, 7, 7),
				}
				long := ip.NewPacket(traffic.PortAddr(1, 1), groups[0], 64, 2048, 1)
				r.OfferPacket(1, &long)
				dst := func(rng *traffic.RNG, p int, id uint16) ip.Addr {
					if rng.Intn(3) == 0 {
						return groups[rng.Intn(len(groups))]
					}
					return uniformDst(rng, p, id)
				}
				behaviourFeed(r, 30000, allPorts, behaviourGen(5, []int{64, 256, 1024}, dst, nil))
			},
			check: func(r *router.Router) error {
				if st := r.Stats(); st.McastIn == [4]int64{} || st.Dropped[1] == 0 {
					return fmt.Errorf("multicast in %v, dropped %v", st.McastIn, st.Dropped)
				}
				return nil
			},
		},
		{
			name: "weights-tos",
			setup: func(cfg *router.Config) {
				cfg.Weights = []int{3, 1, 2, 1}
			},
			drive: func(r *router.Router) {
				tos := func(p int) uint8 { return [4]uint8{0xa0, 0x20, 0, 0xe0}[p] }
				behaviourFeed(r, 30000, allPorts, behaviourGen(6, []int{64, 512}, uniformDst, tos))
			},
		},
		{
			// Destinations inside the /20 and /24 take the second probe;
			// 99/8 has no route. The table moves halfway through.
			name:  "long-prefix-update",
			setup: func(cfg *router.Config) { cfg.Table = longPrefixTable(3, 0) },
			drive: func(r *router.Router) {
				dsts := []ip.Addr{
					ip.AddrFrom(10, 1, 17, 5), ip.AddrFrom(10, 1, 32, 5), ip.AddrFrom(11, 7, 8, 200),
					ip.AddrFrom(11, 7, 9, 200), ip.AddrFrom(12, 7, 8, 200), ip.AddrFrom(99, 1, 2, 3),
				}
				dst := func(rng *traffic.RNG, _ int, _ uint16) ip.Addr { return dsts[rng.Intn(len(dsts))] }
				gen := behaviourGen(7, []int{64, 256}, dst, nil)
				behaviourFeed(r, 15000, allPorts, gen)
				r.UpdateTable(longPrefixTable(1, 2))
				behaviourFeed(r, 15000, allPorts, gen)
			},
		},
		{
			// Port 0's line stalls ten words into a packet: underrun
			// strikes abort it and the line goes down for good.
			name: "underrun-line-down",
			setup: func(cfg *router.Config) {
				withMetrics(cfg)
				cfg.UnderrunQuanta = 2
			},
			drive: func(r *router.Router) {
				pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(2, 7), 64, 256, 5)
				pushWords(r, 0, pkt.Words()[:10])
				behaviourFeed(r, 30000, []int{1, 2, 3}, behaviourGen(8, []int{64, 512}, uniformDst, nil))
			},
			check: func(r *router.Router) error {
				if !r.LineDown(0) || r.Stats().AbortDropped[0] != 1 {
					return fmt.Errorf("line down %v, aborted %d", r.LineDown(0), r.Stats().AbortDropped[0])
				}
				return nil
			},
		},
		{
			// The same stall with reprobe armed, at a 64-word quantum: the
			// stalled 1,024 B packet's first fragment reaches egress 2
			// before the abort, silent probes back off, then the line
			// talks again and comes back up, and port 0's next packet for
			// egress 2 finds the stale fragment there. Meanwhile port 3
			// holds a lone header-only packet.
			name: "reprobe-flap",
			setup: func(cfg *router.Config) {
				cfg.QuantumWords = 64
				cfg.UnderrunQuanta = 2
				cfg.ReprobeQuanta = 4
				cfg.ReprobeSeed = 99
			},
			drive: func(r *router.Router) {
				pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(2, 7), 64, 1024, 5)
				ws := pkt.Words()
				pushWords(r, 0, ws[:100])
				bare := ip.NewPacket(traffic.PortAddr(3, 1), traffic.PortAddr(1, 8), 64, ip.HeaderBytes, 6)
				r.OfferPacket(3, &bare)
				for r.Stats().Reprobes[0] < 2 && r.Cycle() < 100000 {
					r.Run(500)
				}
				pushWords(r, 0, ws[100:])
				behaviourFeed(r, 20000, allPorts, behaviourGen(9, []int{64, 256}, uniformDst, nil))
			},
			check: func(r *router.Router) error {
				if st := r.Stats(); st.Reprobes[0] == 0 || st.Recovered[0] != 1 || r.LineDown(0) || st.FragsSent[0] == 0 {
					return fmt.Errorf("reprobes %d, recovered %d, line down %v", st.Reprobes[0], st.Recovered[0], r.LineDown(0))
				}
				return nil
			},
		},
		{
			// Port 1's crossbar (tile 6) freezes and thaws: the watchdog
			// degrades the fabric, packets for the dead egress abort, and
			// auto-restore re-admits the port.
			name: "watchdog-autorestore",
			setup: func(cfg *router.Config) {
				withMetrics(cfg)
				cfg.Events = &trace.EventLog{}
				cfg.Watchdog = true
				cfg.WatchdogCycles = 2000
				cfg.AutoRestore = true
				cfg.ReadmitQuanta = 4
			},
			faults: "freeze@3000+6000:t6",
			drive: func(r *router.Router) {
				behaviourFeed(r, 30000, allPorts, behaviourGen(10, []int{64, 128, 256, 512}, uniformDst, nil))
			},
			check: func(r *router.Router) error {
				log := r.Config().Events.String()
				if !strings.Contains(log, "degrade") || !strings.Contains(log, "live") || r.DeadPort() >= 0 {
					return fmt.Errorf("dead port %d, events:\n%s", r.DeadPort(), log)
				}
				return nil
			},
		},
	}
}

// behaviourLine runs c on eng and returns its digests: the cycle, the
// delivered packet count, and FNV-64a digests of the simulated Stats,
// the packets DrainOutput returns, the RTRCKPT1 blob and the Prometheus
// export with its host-side counters zeroed.
func behaviourLine(t *testing.T, c behaviourCase, eng raw.Engine) string {
	t.Helper()
	cfg := router.DefaultConfig()
	cfg.Engine = eng
	cfg.Checkpoint = true
	if c.setup != nil {
		c.setup(&cfg)
	}
	r := mustNew(t, cfg)
	if c.faults != "" {
		r.Chip.InstallFaults(fault.NewInjector(fault.MustParse(c.faults), 16))
	}
	c.drive(r)
	if c.check != nil {
		if err := c.check(r); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
	}
	sum := func(write func(h *strings.Builder)) uint64 {
		var b strings.Builder
		write(&b)
		h := fnv.New64a()
		h.Write([]byte(b.String()))
		return h.Sum64()
	}
	st := r.Stats()
	stats := sum(func(b *strings.Builder) { fmt.Fprintf(b, "%d %+v", st.Cycle, st.Stats) })
	delivered := 0
	out := sum(func(b *strings.Builder) {
		for p := 0; p < 4; p++ {
			pkts, err := r.DrainOutput(p)
			if err != nil {
				t.Fatalf("%v: output %d: %v", eng, p, err)
			}
			for i := range pkts {
				fmt.Fprintf(b, "%d:%x;", p, pkts[i].Words())
			}
			delivered += len(pkts)
		}
	})
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ts := r.TelemetrySnapshot()
	ts.ZeroHost()
	prom, err := ts.Encode("prom")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := sum(func(b *strings.Builder) { b.Write(blob) })
	exp := sum(func(b *strings.Builder) { b.Write(prom) })
	return fmt.Sprintf("%s cycle=%d delivered=%d stats=%016x out=%016x ckpt=%016x prom=%016x",
		c.name, st.Cycle, delivered, stats, out, ckpt, exp)
}

// TestBehaviourGolden pins what the router's firmware does, which
// ref-vs-fast equality cannot see because both engines run the same
// firmware: each scenario must print the same digest line on both
// engines, and that line must match testdata/behaviour.golden. Only a
// deliberate behaviour change rewrites the file, with
// go test ./internal/router -run TestBehaviourGolden -update.
func TestBehaviourGolden(t *testing.T) {
	want := map[string]string{}
	if !*update {
		f, err := os.Open(behaviourGolden)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, _, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = sc.Text()
			}
		}
		f.Close()
	}
	var lines []string
	for _, c := range behaviourCases() {
		ref := behaviourLine(t, c, raw.EngineRef)
		fast := behaviourLine(t, c, raw.EngineFast)
		if ref != fast {
			t.Errorf("engines differ:\nref  %s\nfast %s", ref, fast)
		}
		lines = append(lines, ref)
		if !*update && ref != want[c.name] {
			t.Errorf("behaviour moved:\ngot  %s\nwant %s", ref, want[c.name])
		}
	}
	if *update {
		if err := os.WriteFile(behaviourGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
