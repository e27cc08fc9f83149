package main

import (
	"fmt"

	"repro/internal/router"
	"repro/internal/traffic"
)

// drainRounds is how often the router workloads drain their outputs.
const drainRounds = 20

var router1024 = &workload{
	name: "router-1024B-perm",
	why: "The paper's §7.2 peak: 1,024 B packets on a conflict-free permutation. " +
		"Macro windows cover most cycles, so engine fast-forward work shows here.",
	warmup:    80_000,
	segment:   128_000,
	unit:      roundCycles,
	paperGbps: 26.9,
	build: func(p params) (episodeRunner, error) {
		// Every rotation of the four ports is conflict-free; the seed picks one.
		return newRouterRun(p, traffic.Spec{Pattern: "permutation", Size: 1024, Seed: p.seed,
			Params: map[string]float64{"offset": float64(1 + p.seed%3)}})
	},
}

var router64 = &workload{
	name: "router-64B-uniform",
	why: "Minimum-size packets, uniform destinations: per-packet firmware cost dominates " +
		"and macro windows are rare, so per-cycle dispatch shows here.",
	warmup:    40_000,
	segment:   64_000,
	unit:      roundCycles,
	paperGbps: 5.0,
	build: func(p params) (episodeRunner, error) {
		return newRouterRun(p, traffic.Spec{Pattern: "uniform", Size: 64, Seed: p.seed})
	},
}

// routerRun is one router episode.
type routerRun struct {
	*closedLoop
	p params
	r *router.Router
}

func newRouterRun(p params, spec traffic.Spec) (*routerRun, error) {
	cfg := router.DefaultConfig()
	cfg.Engine = p.engine
	r, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := newClosedLoop(r, spec)
	if err != nil {
		return nil, err
	}
	l.offerSpan, l.runSpan, l.drainSpan, l.drainRounds = "router.offer", "raw.run", "router.drain", drainRounds
	return &routerRun{closedLoop: l, p: p, r: r}, nil
}

func (rr *routerRun) macro() macroCounts {
	st := rr.r.Stats()
	var mc macroCounts
	mc.addChip(st.MacroWindows, st.MacroCycles, st.MacroDisarms)
	return mc
}

func (rr *routerRun) outWords() int64 {
	var n int64
	for port := 0; port < 4; port++ {
		n += rr.r.OutputWords(port)
	}
	return n
}

func (rr *routerRun) run(m *meter) (o outcome, err error) {
	defer func() { o.ops = rr.offered }()
	seg := rr.p.seg
	if err := rr.rounds(&meter{}, rr.p.warm); err != nil {
		return outcome{}, err
	}
	mc0, words0, offered0, delivered0 := rr.macro(), rr.outWords(), rr.offered, rr.delivered
	m.startTimed()
	for s := 0; s < segments; s++ {
		m.beginSegment("bench.segment")
		err := rr.rounds(m, seg)
		m.endSegment(seg)
		if err != nil {
			return outcome{}, err
		}
	}
	m.stopTimed()

	st := rr.r.Stats()
	var in, out, failed int64
	d := newDigest()
	for port := 0; port < 4; port++ {
		in += st.PktsIn[port]
		out += st.PktsOut[port]
		failed += st.Dropped[port] + st.AbortDropped[port]
		d.add(int64(rr.portDigest[port].h), rr.r.OutputWords(port))
	}
	failed += st.FabricLost
	if out+st.FabricLost > in {
		return outcome{}, fmt.Errorf("router delivered %d + lost %d packets of %d in", out, st.FabricLost, in)
	}
	if in > rr.offered || rr.delivered > rr.offered {
		return outcome{}, fmt.Errorf("router took in %d and delivered %d packets of %d offered", in, rr.delivered, rr.offered)
	}
	d.add(st.Cycle, st.FabricLost)
	d.addArr(st.Accepted, st.Dropped, st.Denied, st.FragsSent, st.PktsIn, st.PktsOut,
		st.Reassembled, st.Lookups, st.AbortDropped, st.Underruns)

	timed := seg * segments
	vals := map[string]float64{
		"router.offered_pkts":   float64(rr.offered - offered0),
		"router.delivered_pkts": float64(rr.delivered - delivered0),
	}
	rr.macro().since(mc0).into(vals, timed)
	return outcome{
		failed: failed,
		cycles: timed, words: rr.outWords() - words0,
		digest: d.h, vals: vals,
	}, nil
}
