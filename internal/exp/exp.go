// Package exp is the experiment harness: one entry point per table and
// figure of the paper (and per quantitative claim the design rests on),
// each returning the same rows/series the paper reports. cmd/reproduce
// runs each of them as one named section and its output is the source
// of record for EXPERIMENTS.md, so the numbers in the documentation are
// regenerable by construction.
package exp

import (
	"fmt"

	"repro/internal/click"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/netproc"
	"repro/internal/raw"
	"repro/internal/rotor"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/switchfab"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// PaperFigure71Peak holds the published Figure 7-1 (top) series in Gbps,
// indexed like traffic.Sizes; PaperFigure71Avg the bottom series.
var (
	PaperFigure71Peak = map[int]float64{64: 7.3, 128: 14.4, 256: 20.1, 512: 24.7, 1024: 26.9}
	PaperFigure71Avg  = map[int]float64{64: 5.0, 128: 9.9, 256: 13.8, 512: 16.9, 1024: 18.6}
	// PaperClickGbps is the Click bar of Figure 7-1.
	PaperClickGbps = 0.23
)

// chipEngine is the chip cycle engine applied to every cycle-level
// router the harness builds; see SetEngine.
var chipEngine raw.Engine

// SetEngine makes every cycle-level router the harness constructs step
// its chip with the given engine (threaded from cmd/reproduce's -engine
// flag). It cannot change any regenerated number — the fast engine is
// bit-for-bit equivalent — only wall time.
func SetEngine(e raw.Engine) { chipEngine = e }

// Quality selects experiment duration.
type Quality int

// Quick is the short run (reproduce -quick, the tests); Full is for the
// recorded results.
const (
	Quick Quality = iota
	Full
)

func cyclesFor(q Quality, quick, full int64) int64 {
	if q == Quick {
		return quick
	}
	return full
}

// newRouter builds a closed-loop cycle router from cfg on the harness's
// chip engine.
func newRouter(cfg router.Config) *core.Router {
	cfg.Engine = chipEngine
	r, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// sources compiles a workload spec into its per-port sources.
func sources(s traffic.Spec) []traffic.Source {
	srcs, err := traffic.MustBuild(s).Sources()
	if err != nil {
		panic(err)
	}
	return srcs
}

// permutation is the conflict-free peak-rate workload (§7.2): input i
// sends size-byte packets to output (i+offset) mod 4.
func permutation(size, offset int) traffic.Spec {
	return traffic.Spec{Pattern: "permutation", Size: size,
		Params: map[string]float64{"offset": float64(offset)}}
}

// uniform is the average-rate workload (§7.3): i.i.d. uniform
// destinations.
func uniform(size int, seed uint64) traffic.Spec {
	return traffic.Spec{Pattern: "uniform", Size: size, Seed: seed}
}

// saturateFabric runs the quantum-level model for cycles cycles, keeping
// every input queue at four packets of the given words to destinations
// drawn uniformly from rng, and returns its goodput at 250 MHz.
func saturateFabric(f *rotor.Fabric, cycles int64, rng *traffic.RNG, words int) float64 {
	n := f.Config().Ports
	for f.Cycles < cycles {
		for p := 0; p < n; p++ {
			for f.QueueLen(p) < 4 {
				f.Offer(p, rng.Intn(n), words)
			}
		}
		f.StepQuantum()
	}
	return stats.Gbps(f.TotalWords()*4, f.Cycles, 250e6)
}

// Figure71Point is one packet-size point of Figure 7-1.
type Figure71Point struct {
	SizeBytes int
	Gbps      float64
	Mpps      float64
	PaperGbps float64
	CyclesPkt float64
	Ratio     float64 // measured / paper
}

// Figure71 regenerates Figure 7-1: peak (conflict-free permutation) or
// average (uniform destinations) throughput of the cycle-level router
// across the packet-size sweep, plus the Click baseline bar.
func Figure71(q Quality, average bool) ([]Figure71Point, float64, *stats.Table) {
	cycles := cyclesFor(q, 40_000, 150_000)
	// Warm the lookup caches and the pipeline before measuring: the
	// compact-table working set (~1,024 hot level-1 slots under the
	// synthetic address mix) takes tens of thousands of cycles to become
	// resident, exactly as it would on the real chip.
	warm := cyclesFor(q, 80_000, 120_000)
	var pts []Figure71Point
	for i, size := range traffic.Sizes {
		spec := permutation(size, 1+i%3)
		if average {
			spec = uniform(size, uint64(size)+7)
		}
		res := newRouter(router.DefaultConfig()).RunMeasured(warm, cycles, sources(spec))
		paper := PaperFigure71Peak[size]
		if average {
			paper = PaperFigure71Avg[size]
		}
		pt := Figure71Point{
			SizeBytes: size,
			Gbps:      res.Gbps,
			Mpps:      res.Mpps,
			PaperGbps: paper,
			Ratio:     stats.Ratio(res.Gbps, paper),
		}
		if res.Packets > 0 {
			pt.CyclesPkt = float64(res.Cycles) * 4 / float64(res.Packets)
		}
		pts = append(pts, pt)
	}
	clickGbps, _ := click.MLFFR(router.CanonicalTable(), 4, 64, int(cyclesFor(q, 5_000, 50_000)))

	kind := "Peak"
	if average {
		kind = "Average"
	}
	tb := &stats.Table{
		Caption: fmt.Sprintf("Figure 7-1 (%s throughput vs packet size, 250 MHz; Click baseline %.2f Gbps, paper 0.23)", kind, clickGbps),
		Headers: []string{"size(B)", "Gbps", "paper", "ratio", "Mpps", "cyc/pkt"},
	}
	for _, p := range pts {
		tb.AddRow(p.SizeBytes, p.Gbps, p.PaperGbps, p.Ratio, p.Mpps, p.CyclesPkt)
	}
	return pts, clickGbps, tb
}

// Figure73 regenerates the per-tile utilization strips of Figure 7-3 for
// 64-byte and 1,024-byte packets: the ASCII strip charts plus per-tile
// run/gray fractions over an 800-cycle window.
func Figure73(q Quality) (small, large *trace.Recorder, render string) {
	run := func(size int) *trace.Recorder {
		warm := cyclesFor(q, 30_000, 60_000)
		rec := trace.NewRecorder(16, warm, warm+800)
		cfg := router.DefaultConfig()
		cfg.Tracer = rec
		newRouter(cfg).RunSaturated(warm+1200, sources(uniform(size, uint64(size))))
		return rec
	}
	small = run(64)
	large = run(1024)
	order := make([]int, 16)
	for i := range order {
		order[i] = i
	}
	render = "Figure 7-3 (top): 64-byte packets, 800 cycles\n" +
		small.ASCII(order, 8) +
		"\nFigure 7-3 (bottom): 1,024-byte packets, 800 cycles\n" +
		large.ASCII(order, 8)
	return small, large, render
}

// ConfigSpaceResult is the §6.1/§6.2 arithmetic (experiment E5).
type ConfigSpaceResult struct {
	Space          int     // 5^4 x 4 = 2,500
	WordsPerConfig float64 // 8192 / 2500 ≈ 3.3
	Minimized      int     // paper: 32; this reconstruction: 27
	Reduction      float64 // paper: 78x
	XbarProgWords  int     // generated switch program size
	SwMemWords     int     // 8,192 budget
}

// ConfigSpace regenerates the configuration-space minimization numbers.
func ConfigSpace() ConfigSpaceResult {
	ci := rotor.NewConfigIndex(4)
	xp, err := router.GenXbarProgram(0, ci)
	if err != nil {
		panic(err)
	}
	return ConfigSpaceResult{
		Space:          rotor.SpaceSize(4),
		WordsPerConfig: rotor.UnminimizedIMemNeed(4, raw.IMemWords),
		Minimized:      ci.Len(),
		Reduction:      float64(rotor.SpaceSize(4)) / float64(ci.Len()),
		XbarProgWords:  len(xp.Prog),
		SwMemWords:     raw.SwMemWords,
	}
}

// ConfigSpaceTable renders ConfigSpace as a table.
func ConfigSpaceTable() *stats.Table {
	r := ConfigSpace()
	tb := &stats.Table{
		Caption: "§6.1/§6.2 configuration space (paper: 2,500 -> 32 entries, 78x)",
		Headers: []string{"quantity", "value"},
	}
	tb.AddRow("global configurations (5^4 x 4)", r.Space)
	tb.AddRow("imem words per unminimized config", r.WordsPerConfig)
	tb.AddRow("minimized per-tile configs", r.Minimized)
	tb.AddRow("reduction", fmt.Sprintf("%.0fx", r.Reduction))
	tb.AddRow("generated crossbar switch program (words)", r.XbarProgWords)
	tb.AddRow("switch memory budget (words)", r.SwMemWords)
	return tb
}

// SecondNetworkAblation regenerates §5.3: goodput with one vs two static
// networks under uniform saturation (fabric engine).
func SecondNetworkAblation(q Quality) (one, two float64, tb *stats.Table) {
	cycles := cyclesFor(q, 300_000, 2_000_000)
	run := func(second bool) float64 {
		cfg := rotor.DefaultFabricConfig()
		cfg.SecondNetwork = second
		return saturateFabric(rotor.NewFabric(cfg), cycles, traffic.NewRNG(5), 256)
	}
	one, two = run(false), run(true)
	tb = &stats.Table{
		Caption: "§5.3 second static network ablation (paper: no improvement)",
		Headers: []string{"networks", "Gbps", "delta"},
	}
	tb.AddRow(1, one, "-")
	tb.AddRow(2, two, fmt.Sprintf("%+.2f%%", 100*(two-one)/one))
	return one, two, tb
}

// FairnessResult is the §5.4 study: per-input grant shares under an
// adversarial single-output flood.
func Fairness(q Quality) ([]float64, *stats.Table) {
	quanta := int(cyclesFor(q, 20_000, 100_000))
	fcfg := rotor.DefaultFabricConfig()
	f := rotor.NewFabric(fcfg)
	for i := 0; i < quanta; i++ {
		for p := 0; p < 4; p++ {
			if f.QueueLen(p) < 4 {
				f.Offer(p, 0, 64)
			}
		}
		f.StepQuantum()
	}
	var shares []float64
	tb := &stats.Table{
		Caption: "§5.4 fairness under all-to-one flood (paper: token prevents starvation)",
		Headers: []string{"input", "grants", "share"},
	}
	var total int64
	for p := 0; p < 4; p++ {
		total += f.GrantsPerInput[p]
	}
	for p := 0; p < 4; p++ {
		share := float64(f.GrantsPerInput[p]) / float64(total)
		shares = append(shares, share)
		tb.AddRow(p, f.GrantsPerInput[p], share)
	}
	return shares, tb
}

// HOLvsVOQ regenerates the §2.2.2 background claims: FIFO input queueing
// saturates near 2-sqrt(2) ≈ 0.586 while VOQ+iSLIP reaches ~1.0.
func HOLvsVOQ(q Quality) (fifo, voq, oq float64, tb *stats.Table) {
	slots := cyclesFor(q, 20_000, 200_000)
	rng := traffic.NewRNG(1)
	fifo = switchfab.SaturationThroughput(switchfab.NewFIFOSwitch(16, 64), rng.Fork(1), 2000, slots)
	voq = switchfab.SaturationThroughput(switchfab.NewVOQSwitch(16, 64, 3), rng.Fork(2), 2000, slots)
	oq = switchfab.SaturationThroughput(switchfab.NewOQSwitch(16), rng.Fork(3), 2000, slots)
	tb = &stats.Table{
		Caption: "§2.2.2 head-of-line blocking vs virtual output queueing (16 ports, uniform saturation)",
		Headers: []string{"switch", "throughput", "paper"},
	}
	tb.AddRow("FIFO input-queued", fifo, "≈0.586")
	tb.AddRow("VOQ + iSLIP(3)", voq, "≈1.0")
	tb.AddRow("ideal output-queued", oq, "1.0")
	return fifo, voq, oq, tb
}

// CellsVsVariable regenerates the §2.2.2 fixed-cell claim: variable-length
// scheduling limits throughput to ≈60 %.
func CellsVsVariable(q Quality) (cells, varlen float64, tb *stats.Table) {
	slots := cyclesFor(q, 20_000, 200_000)
	rng := traffic.NewRNG(2)
	cells = switchfab.SaturationThroughput(switchfab.NewVOQSwitch(16, 64, 3), rng.Fork(1), 2000, slots)
	varlen = switchfab.VarLenSaturation(switchfab.NewVarLenSwitch(16, 64), rng.Fork(2), []int{1, 4, 16}, 2000, slots)
	tb = &stats.Table{
		Caption: "§2.2.2 fixed cells vs variable-length packets (paper: ~100% vs ~60%)",
		Headers: []string{"mode", "throughput"},
	}
	tb.AddRow("fixed cells (VOQ+iSLIP)", cells)
	tb.AddRow("variable-length packets", varlen)
	return cells, varlen, tb
}

// QoS regenerates the §8.7 weighted-token study: grant shares of a
// contended output under weights {3,1,1,1}.
func QoS(q Quality) ([]float64, *stats.Table) {
	quanta := int(cyclesFor(q, 10_000, 60_000))
	fcfg := rotor.DefaultFabricConfig()
	fcfg.Weights = []int{3, 1, 1, 1}
	f := rotor.NewFabric(fcfg)
	for i := 0; i < quanta; i++ {
		for p := 0; p < 4; p++ {
			if f.QueueLen(p) < 4 {
				f.Offer(p, 2, 64)
			}
		}
		f.StepQuantum()
	}
	var total int64
	for p := 0; p < 4; p++ {
		total += f.GrantsPerInput[p]
	}
	var shares []float64
	tb := &stats.Table{
		Caption: "§8.7 weighted-token QoS, all inputs flooding output 2 (weights 3,1,1,1)",
		Headers: []string{"input", "weight", "share"},
	}
	for p := 0; p < 4; p++ {
		share := float64(f.GrantsPerInput[p]) / float64(total)
		shares = append(shares, share)
		tb.AddRow(p, fcfg.Weights[p], share)
	}
	return shares, tb
}

// Multicast regenerates the §8.6 study: goodput amplification from
// fanout-splitting vs sending unicast copies.
func Multicast(q Quality) (copies, fanout float64, tb *stats.Table) {
	quanta := int(cyclesFor(q, 10_000, 60_000))
	// Workload: every quantum, input 0 wants {1,2,3}.
	// Fanout-splitting: one arc serves all three members per quantum.
	served := 0
	for i := 0; i < quanta; i++ {
		a := rotor.AllocateMcast([]rotor.McastReq{rotor.McastTo(1, 2, 3), 0, 0, 0}, i%4)
		served += a.Granted[0].Count()
	}
	fanout = float64(served) / float64(quanta)
	// Unicast copies: the ingress sends three separate packets; one
	// transfer per quantum at best.
	f := rotor.NewFabric(rotor.DefaultFabricConfig())
	dst := 1
	for i := 0; i < quanta; i++ {
		for f.QueueLen(0) < 4 {
			f.Offer(0, 1+dst%3, 64)
			dst++
		}
		f.StepQuantum()
	}
	copies = float64(f.TotalPkts()) / float64(f.Quanta)
	tb = &stats.Table{
		Caption: "§8.6 multicast: egress deliveries per quantum, fanout-splitting vs unicast copies",
		Headers: []string{"mode", "deliveries/quantum"},
	}
	tb.AddRow("unicast copies", copies)
	tb.AddRow("fanout-splitting", fanout)
	return copies, fanout, tb
}

// Scale8 regenerates the §8.5 scaling study on the fabric engine: goodput
// and grant ratio for 4- and 8-port rings under uniform saturation.
func Scale8(q Quality) *stats.Table {
	cycles := cyclesFor(q, 300_000, 2_000_000)
	tb := &stats.Table{
		Caption: "§8.5 scaling: Rotating Crossbar rings under uniform saturation (fabric engine)",
		Headers: []string{"ports", "Gbps", "Gbps/port", "grant ratio"},
	}
	for _, n := range []int{4, 8, 16} {
		cfg := rotor.DefaultFabricConfig()
		cfg.Ports = n
		f := rotor.NewFabric(cfg)
		gbps := saturateFabric(f, cycles, traffic.NewRNG(uint64(n)), 256)
		var grants, offered int64
		for p := 0; p < n; p++ {
			grants += f.GrantsPerInput[p]
			offered += f.GrantsPerInput[p] + f.BlockedPerInput[p]
		}
		tb.AddRow(n, gbps, gbps/float64(n), stats.Ratio(float64(grants), float64(offered)))
	}
	return tb
}

// Headline checks the §7.2 headline: ≈3.3 Mpps and ≈26.9 Gbps at 1,024
// bytes peak.
func Headline(q Quality) (mpps, gbps float64) {
	res := newRouter(router.DefaultConfig()).RunMeasured(cyclesFor(q, 40_000, 80_000),
		cyclesFor(q, 60_000, 200_000), sources(permutation(1024, 1)))
	return res.Mpps, res.Gbps
}

// LookupCost measures the route-lookup substrate: probes per lookup for
// Patricia vs the compact table on a realistic prefix mix (§8.2).
func LookupCost(routes int) *stats.Table {
	var t lookup.Patricia
	rng := traffic.NewRNG(99)
	_ = t.Insert(0, 0, 0)
	for i := 0; i < routes; i++ {
		plen := 8 + rng.Intn(17)
		_ = t.Insert(uint32(rng.Uint64()), plen, lookup.NextHop(rng.Intn(4)))
	}
	c := lookup.NewCompactTable(&t)
	var pProbes, cProbes int64
	const lookups = 20000
	for i := 0; i < lookups; i++ {
		addr := uint32(rng.Uint64())
		_, pp := t.Lookup(addr)
		_, cp := c.Lookup(addr)
		pProbes += int64(pp)
		cProbes += int64(cp)
	}
	tb := &stats.Table{
		Caption: fmt.Sprintf("§8.2 lookup structures, %d routes, %d random lookups", routes, lookups),
		Headers: []string{"structure", "mean probes", "memory (words)"},
	}
	tb.AddRow("patricia trie", float64(pProbes)/lookups, "-")
	tb.AddRow("compact 2-level", float64(cProbes)/lookups, c.MemoryWords())
	return tb
}

// DelayVsLoad sweeps offered load on the Rotating Crossbar fabric and
// reports mean and tail packet latency — the classic queueing curve that
// complements the paper's saturation-only measurements (input- and
// output-blocking "increase the delay of individual packets ... and make
// the delay random and unpredictable", §2.2.2).
func DelayVsLoad(q Quality) *stats.Table {
	quanta := int(cyclesFor(q, 20_000, 100_000))
	tb := &stats.Table{
		Caption: "Rotating Crossbar latency vs offered load (fabric engine, 256B packets; FIFO vs VOQ ingress)",
		Headers: []string{"offered", "achieved", "mean delay (cyc)", "p99 (cyc)", "voq mean delay"},
	}
	for _, load := range []float64{0.2, 0.4, 0.6, 0.65} {
		f := rotor.NewFabric(rotor.DefaultFabricConfig())
		rng := traffic.NewRNG(uint64(load*1000) + 3)
		for i := 0; i < quanta; i++ {
			for p := 0; p < 4; p++ {
				if rng.Float64() < load {
					f.Offer(p, rng.Intn(4), 64)
				}
			}
			f.StepQuantum()
		}
		v := rotor.NewVOQFabric(rotor.DefaultFabricConfig())
		rng2 := traffic.NewRNG(uint64(load*1000) + 3)
		for i := 0; i < quanta; i++ {
			for p := 0; p < 4; p++ {
				if rng2.Float64() < load {
					v.Offer(p, rng2.Intn(4), 64)
				}
			}
			v.StepQuantum()
		}
		achieved := float64(f.TotalPkts()) / float64(f.Quanta) / 4
		tb.AddRow(load, achieved, f.Latency.Mean(), f.Latency.Quantile(0.99), v.Latency.Mean())
	}
	return tb
}

// McastCells regenerates the §2.2.2 cell-level multicast claim: crossbar
// fanout-splitting vs atomic multicast service vs input replication.
func McastCells(q Quality) (atomic, splitting, replication float64, tb *stats.Table) {
	slots := cyclesFor(q, 20_000, 100_000)
	rng := traffic.NewRNG(13)
	atomic, splitting, replication = switchfab.McastThroughput(8, 3, rng, 2000, slots)
	tb = &stats.Table{
		Caption: "§2.2.2 multicast cells (8 ports, fanout 3): fanout-splitting vs atomic service (paper: +40%)",
		Headers: []string{"strategy", "output throughput"},
	}
	tb.AddRow("atomic multicast service", atomic)
	tb.AddRow("crossbar fanout-splitting", splitting)
	tb.AddRow("input replication (unicast VOQ)", replication)
	return atomic, splitting, replication, tb
}

// McastCycle measures the §8.6 extension at cycle level: a mixed
// unicast/multicast workload through the real router, reporting the
// egress-copy amplification fanout-splitting provides.
func McastCycle(q Quality) (amplification float64, tb *stats.Table) {
	group := ip.AddrFrom(224, 1, 1, 1)
	cfg := router.DefaultConfig()
	cfg.Multicast = true
	cfg.Groups = map[ip.Addr]uint8{group: 0b1111}
	r := newRouter(cfg)
	srcs := sources(uniform(256, 7))
	rng := traffic.NewRNG(7)
	for p, src := range srcs {
		srcs[p] = &groupMix{Source: src, rng: rng, group: group}
	}
	res := r.RunSaturated(cyclesFor(q, 60_000, 200_000), srcs)
	st := r.Cycle().Stats()
	var in, out int64
	for p := 0; p < 4; p++ {
		in += st.PktsIn[p]
		out += st.PktsOut[p]
	}
	amplification = stats.Ratio(float64(out), float64(in))
	tb = &stats.Table{
		Caption: "§8.6 multicast at cycle level (30% of packets to a 4-member group)",
		Headers: []string{"quantity", "value"},
	}
	tb.AddRow("packets in", in)
	tb.AddRow("egress copies out", out)
	tb.AddRow("amplification", amplification)
	tb.AddRow("throughput (Gbps)", res.Gbps)
	return amplification, tb
}

// groupMix sends 30 % of its source's packets to a multicast group
// instead.
type groupMix struct {
	traffic.Source
	rng   *traffic.RNG
	group ip.Addr
}

// Next implements traffic.Source.
func (g *groupMix) Next() traffic.Pkt {
	pkt := g.Source.Next()
	if g.rng.Float64() < 0.3 {
		pkt.DstIP = g.group
	}
	return pkt
}

// ISLIPIterations sweeps the scheduler's iteration count — the Cisco GSR
// design point §2.2.2 describes ("attempts to quickly converge on a
// conflict-free match in multiple iterations"): one iteration already
// buys most of the throughput, and a couple more close the gap.
func ISLIPIterations(q Quality) *stats.Table {
	slots := cyclesFor(q, 20_000, 100_000)
	tb := &stats.Table{
		Caption: "§2.2.2 iSLIP iteration count (16 ports, uniform saturation)",
		Headers: []string{"iterations", "throughput"},
	}
	rng := traffic.NewRNG(4)
	for _, iters := range []int{1, 2, 3, 4} {
		got := switchfab.SaturationThroughput(
			switchfab.NewVOQSwitch(16, 64, iters), rng.Fork(uint64(iters)), 2000, slots)
		tb.AddRow(iters, got)
	}
	return tb
}

// ClusterScaling regenerates the §8.5 multi-chip composition study at
// cycle level: two 4-port chips (a 2-chip ring, each chip keeping two
// externals and joined by a two-link trunk) sustain full external
// bandwidth for balanced cross-chip traffic, paying a second traversal
// in latency.
func ClusterScaling(q Quality) *stats.Table {
	rounds := int(cyclesFor(q, 250, 600))
	run := func(perm []int) (gbps float64, trunkAB int64) {
		cfg := cluster.Config{Topology: cluster.Ring(2), Router: router.DefaultConfig()}
		cfg.Router.Engine = chipEngine
		f, err := cluster.NewFabric(cfg)
		if err != nil {
			panic(err)
		}
		srcs := make([]traffic.Source, len(perm))
		for p := range srcs {
			srcs[p] = &traffic.Permutation{Perm: perm, Size: 1024, Src: p}
		}
		if err := RunFabric(f, srcs, rounds); err != nil {
			panic(err)
		}
		// Chip 0 -> chip 1 words: trunk 0 forward plus trunk 1 backward.
		_, fwd, _, _, _ := f.TrunkCounters(0, 0)
		_, back, _, _, _ := f.TrunkCounters(1, 1)
		return stats.Gbps(f.ExternalWordsOut()*4, f.Cycle(), cfg.Router.ClockHz), fwd + back
	}
	// Externals 0,1 sit on chip 0 and 2,3 on chip 1.
	local, localWords := run([]int{1, 0, 3, 2})
	remote, remoteWords := run(traffic.RotatedPerm(4, 2))
	tb := &stats.Table{
		Caption: "§8.5 two-chip composition (cycle level): 2-link trunk, balanced traffic",
		Headers: []string{"traffic", "Gbps", "trunk words A->B"},
	}
	tb.AddRow("chip-local pairs", local, localWords)
	tb.AddRow("all cross-chip", remote, remoteWords)
	return tb
}

// FullUtilization regenerates the §8.1 study: single-FIFO ingress (the
// paper's design, HOL-limited to ≈0.69 of peak) vs VOQ-organized ingress
// buffers, under uniform saturation (fabric engine). The VOQ variant
// needs no new switch code — every transfer is still a minimized unicast
// configuration — only the ingress buffer layout changes.
func FullUtilization(q Quality) (fifoRatio, voqRatio float64, tb *stats.Table) {
	quanta := int(cyclesFor(q, 30_000, 150_000))
	rng := traffic.NewRNG(8)
	cfg := rotor.DefaultFabricConfig()

	fifo := rotor.NewFabric(cfg)
	for i := 0; i < quanta; i++ {
		for p := 0; p < 4; p++ {
			if fifo.QueueLen(p) < 4 {
				fifo.Offer(p, rng.Intn(4), 256)
			}
		}
		fifo.StepQuantum()
	}
	voq := rotor.NewVOQFabric(cfg)
	for i := 0; i < quanta; i++ {
		for p := 0; p < 4; p++ {
			if voq.QueueLen(p) < 8 {
				voq.Offer(p, rng.Intn(4), 256)
			}
		}
		voq.StepQuantum()
	}
	// Normalize to the zero-contention peak (words per cycle at 4 ports
	// streaming one word per cycle minus quantum overhead).
	peak := 4.0 * 256 / float64(cfg.OverheadCycles+256)
	fifoRatio = float64(fifo.TotalWords()) / float64(fifo.Cycles) / peak
	voqRatio = float64(voq.TotalWords()) / float64(voq.Cycles) / peak
	tb = &stats.Table{
		Caption: "§8.1 pursuing full utilization: ingress buffering vs average/peak ratio (uniform saturation)",
		Headers: []string{"ingress buffers", "avg/peak", "paper"},
	}
	tb.AddRow("single FIFO (the thesis's design)", fifoRatio, "0.69")
	tb.AddRow("virtual output queues (§8.1+§2.2.2)", voqRatio, "-")
	return fifoRatio, voqRatio, tb
}

// PIMvsISLIP regenerates the scheduler comparison behind the GSR's
// choice: randomized PIM vs round-robin iSLIP at one iteration, uniform
// saturation and a conflict-free permutation.
func PIMvsISLIP(q Quality) *stats.Table {
	slots := cyclesFor(q, 20_000, 100_000)
	tb := &stats.Table{
		Caption: "PIM vs iSLIP at one iteration (16 ports; PIM(1) theory: 1-1/e ≈ 0.63)",
		Headers: []string{"scheduler", "uniform saturation"},
	}
	pim := switchfab.SaturationThroughput(
		switchfab.NewPIMSwitch(16, 64, 1, traffic.NewRNG(41)), traffic.NewRNG(42), 2000, slots)
	islip := switchfab.SaturationThroughput(
		switchfab.NewVOQSwitch(16, 64, 1), traffic.NewRNG(42), 2000, slots)
	pim4 := switchfab.SaturationThroughput(
		switchfab.NewPIMSwitch(16, 64, 4, traffic.NewRNG(43)), traffic.NewRNG(42), 2000, slots)
	tb.AddRow("PIM, 1 iteration", pim)
	tb.AddRow("PIM, 4 iterations", pim4)
	tb.AddRow("iSLIP, 1 iteration", islip)
	return tb
}

// CycleLatency measures end-to-end packet latency through the cycle-level
// router under light load: offer one packet at a time and time its
// delivery — the number the fabric engine's histogram approximates.
func CycleLatency(q Quality) *stats.Table {
	tb := &stats.Table{
		Caption: "cycle-level router latency, unloaded (pin to pin)",
		Headers: []string{"size(B)", "hops", "cycles", "µs@250MHz"},
	}
	trials := int(cyclesFor(q, 5, 20))
	for _, size := range []int{64, 1024} {
		for _, dst := range []int{1, 2} { // 1 ring hop and 2 ring hops
			var total int64
			for k := 0; k < trials; k++ {
				r, err := router.New(router.DefaultConfig())
				if err != nil {
					panic(err)
				}
				pkt := ip.NewPacket(traffic.PortAddr(0, uint32(k)), traffic.PortAddr(dst, uint32(k)), 64, size, uint16(k))
				r.OfferPacket(0, &pkt)
				if !r.Chip.RunUntil(func() bool { return r.Stats().PktsOut[dst] >= 1 }, 50_000) {
					panic("latency probe stuck")
				}
				total += r.Cycle()
			}
			mean := float64(total) / float64(trials)
			tb.AddRow(size, dst, mean, mean/250)
		}
	}
	return tb
}

// QuantumAblation sweeps the crossbar quantum size — the §4.3/§5.1 design
// choice ("one quantum of routing time ... measured by the number of
// 32-bit words"). Small quanta pay the per-quantum control cost more
// often; the paper's 256-word default lets a full 1,024-byte packet
// amortize it in one shot.
func QuantumAblation(q Quality) *stats.Table {
	cycles := cyclesFor(q, 40_000, 120_000)
	warm := cyclesFor(q, 40_000, 80_000)
	tb := &stats.Table{
		Caption: "quantum-size ablation: peak throughput at 1,024B packets (cycle level)",
		Headers: []string{"quantum (words)", "Gbps", "frags/pkt"},
	}
	for _, qw := range []int{64, 128, 256} {
		cfg := router.DefaultConfig()
		cfg.QuantumWords = qw
		res := newRouter(cfg).RunMeasured(warm, cycles, sources(permutation(1024, 1)))
		tb.AddRow(qw, res.Gbps, (256+qw-1)/qw)
	}
	return tb
}

// NetprocConvergence measures control-plane convergence time vs topology
// size on ring topologies (diameter n/2).
func NetprocConvergence() *stats.Table {
	tb := &stats.Table{
		Caption: "control-plane (RIP) convergence on rings",
		Headers: []string{"routers", "diameter", "rounds to converge"},
	}
	for _, n := range []int{4, 8, 16, 32} {
		nw := netproc.NewNetwork()
		for i := 0; i < n; i++ {
			nw.AddNode(i).Attach(netproc.Prefix{Addr: uint32(i+1) << 24, Len: 8}, 0)
		}
		for i := 0; i < n; i++ {
			nw.Link(i, 1, (i+1)%n, 2)
		}
		ticks := nw.RunUntilStable(10 * n)
		tb.AddRow(n, n/2, ticks)
	}
	return tb
}

// DegradedCrossbar quantifies graceful degradation (the robustness
// extension): the rotating crossbar with one crossbar tile masked out of
// the token rotation — three live ports on a three-stop ring — against
// the healthy four-port fabric, under saturated conflict-free traffic
// among the live ports. The per-live-port ratio isolates protocol
// overhead of the degraded header exchange from the expected 3/4
// capacity loss.
func DegradedCrossbar(q Quality) (healthy, degraded []float64, tb *stats.Table) {
	cycles := cyclesFor(q, 30_000, 120_000)
	run := func(size, dead int) float64 {
		r := newRouter(router.DefaultConfig())
		if dead >= 0 {
			if err := r.Cycle().Degrade(dead); err != nil {
				panic(err)
			}
		}
		// Each live port sends to the next live port; the dead port idles.
		var live []int
		for p := 0; p < 4; p++ {
			if p != dead {
				live = append(live, p)
			}
		}
		perm := make([]int, 4)
		srcs := make([]traffic.Source, 4)
		for i, p := range live {
			perm[p] = live[(i+1)%len(live)]
			srcs[p] = &traffic.Permutation{Perm: perm, Size: size, Src: p}
		}
		return r.RunSaturated(cycles, srcs).Gbps
	}
	tb = &stats.Table{
		Caption: "degraded rotating crossbar: 3 live ports vs 4 (one crossbar tile masked)",
		Headers: []string{"size(B)", "healthy Gbps", "degraded Gbps", "ratio", "per-port ratio"},
	}
	for _, size := range []int{64, 256, 1024} {
		h := run(size, -1)
		d := run(size, 2)
		healthy = append(healthy, h)
		degraded = append(degraded, d)
		tb.AddRow(size, h, d, stats.Ratio(d, h), stats.Ratio(d/3, h/4))
	}
	return healthy, degraded, tb
}

// RestoredCrossbar quantifies port re-admission (the recovery
// extension): a router that degraded port 2 away, drained, restored it,
// and served out the probation window, measured against a router that
// never failed — same saturated uniform workload, same measurement
// window. The acceptance bar for the recovery design is that the
// restored fabric is within 1% of healthy: re-admission leaves the
// healthy rotor entries bitwise unchanged and the transition slots cost
// only the one re-entry quantum.
func RestoredCrossbar(q Quality) (healthy, restored []float64, tb *stats.Table) {
	warmup := cyclesFor(q, 10_000, 20_000)
	window := cyclesFor(q, 40_000, 100_000)
	run := func(size int, arc bool) float64 {
		r := newRouter(router.DefaultConfig())
		if arc {
			rt := r.Cycle()
			if err := rt.Degrade(2); err != nil {
				panic(err)
			}
			rt.Run(10_000)
			if err := rt.Restore(2); err != nil {
				panic(err)
			}
			if !rt.Chip.RunUntil(func() bool {
				return rt.DeadPort() < 0 && rt.ProbationPort() < 0
			}, 100_000) {
				panic("exp: restore never completed")
			}
		}
		return r.RunMeasured(warmup, window, sources(uniform(size, 1234))).Gbps
	}
	tb = &stats.Table{
		Caption: "restored rotating crossbar: after degrade(port2) -> restore -> probation vs never-failed",
		Headers: []string{"size(B)", "healthy Gbps", "restored Gbps", "ratio"},
	}
	for _, size := range []int{64, 256, 1024} {
		h := run(size, false)
		g := run(size, true)
		healthy = append(healthy, h)
		restored = append(restored, g)
		tb.AddRow(size, h, g, stats.Ratio(g, h))
	}
	return healthy, restored, tb
}

// Telemetry exercises the telemetry plane end to end: a saturated
// uniform workload with the per-quantum collector armed, reported
// entirely from the exported snapshot (never from router internals).
// Because sampling reads only simulated state, the snapshot — and
// therefore every number in the table — is bit-for-bit identical on
// either engine.
func Telemetry(q Quality) (snap telemetry.Snapshot, tb *stats.Table) {
	cfg := router.DefaultConfig()
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r := newRouter(cfg)
	r.RunSaturated(cyclesFor(q, 40_000, 150_000), sources(uniform(1024, 42)))
	snap = r.Cycle().TelemetrySnapshot()
	tb = &stats.Table{
		Caption: "telemetry plane: per-quantum metrics over a saturated uniform workload",
		Headers: []string{"port", "granted q", "denied q", "words granted", "link util", "token-wait mean"},
	}
	for p := 0; p < 4; p++ {
		ps := snap.Ports[p]
		tb.AddRow(p, ps.GrantedQuanta, ps.DeniedQuanta, ps.WordsGranted,
			ps.LinkUtilization, ps.TokenWait.Mean())
	}
	return snap, tb
}
