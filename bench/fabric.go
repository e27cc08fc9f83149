package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/traffic"
)

var fabricMesh16 = &workload{
	name: "fabric-mesh16",
	why: "fabsim's 16-chip mesh under antipodal 1,024 B traffic: 16 routers plus trunk bridging, " +
		"the target of chip-parallel stepping, which the other workloads bypass.",
	warmup:  20_000,
	segment: 16_000,
	unit:    roundCycles,
	build: func(p params) (episodeRunner, error) {
		cfg := cluster.Config{Topology: cluster.Mesh(4, 4), Router: router.DefaultConfig()}
		cfg.Router.Engine = p.engine
		f, err := cluster.NewFabric(cfg)
		if err != nil {
			return nil, err
		}
		// Antipodal: external e sends to external (e + E/2) mod E.
		ext := cfg.Topology.Externals()
		l, err := newClosedLoop(f, traffic.Spec{Pattern: "permutation", Ports: ext, Size: fabricPktBytes,
			Seed: p.seed, Params: map[string]float64{"offset": float64(ext / 2)}})
		if err != nil {
			return nil, err
		}
		l.offerSpan, l.runSpan, l.drainSpan, l.drainRounds = "cluster.offer", "cluster.run", "cluster.drain", 1
		l.afterRound = func(m *meter) error {
			id := m.tr.begin("cluster.conservation")
			err := f.ConservationError()
			m.tr.end(id)
			return err
		}
		return &fabricRun{closedLoop: l, p: p, f: f}, nil
	},
}

// fabricRun is one mesh episode: fabsim's loop, with each external e
// sending 1,024 B packets to external (e + E/2) mod E, drained every
// round and its trunks' conservation checked every round.
type fabricRun struct {
	*closedLoop
	p params
	f *cluster.Fabric
}

const fabricPktBytes = 1024

func (fr *fabricRun) macro() macroCounts {
	var mc macroCounts
	for k := 0; k < fr.f.Spec().NumChips(); k++ {
		st := fr.f.Chip(k).Stats()
		mc.addChip(st.MacroWindows, st.MacroCycles, st.MacroDisarms)
	}
	return mc
}

func (fr *fabricRun) trunkWords() int64 {
	var n int64
	for ti := range fr.f.Spec().Trunks() {
		for d := 0; d < 2; d++ {
			_, delivered, _, _, _ := fr.f.TrunkCounters(ti, d)
			n += delivered
		}
	}
	return n
}

func (fr *fabricRun) run(m *meter) (o outcome, err error) {
	defer func() { o.ops = fr.offered }()
	seg := fr.p.seg
	if err := fr.rounds(&meter{}, fr.p.warm); err != nil {
		return outcome{}, err
	}
	mc0, words0, trunk0 := fr.macro(), fr.f.ExternalWordsOut(), fr.trunkWords()
	m.startTimed()
	for s := 0; s < segments; s++ {
		m.beginSegment("bench.segment")
		err := fr.rounds(m, seg)
		m.endSegment(seg)
		if err != nil {
			return outcome{}, err
		}
	}
	m.stopTimed()

	d := newDigest()
	d.add(int64(fr.f.Fingerprint()))
	var failed int64
	for e := range fr.portDigest {
		d.add(int64(fr.portDigest[e].h))
	}
	for k := 0; k < fr.f.Spec().NumChips(); k++ {
		st := fr.f.Chip(k).Stats()
		for port := 0; port < 4; port++ {
			failed += st.Dropped[port] + st.AbortDropped[port]
		}
		failed += st.FabricLost
	}
	// The ledger counts drops in words; every packet is fabricPktBytes.
	dropped := fr.f.Delivery().DroppedTotal()
	failed += (dropped*4 + fabricPktBytes - 1) / fabricPktBytes
	if fr.delivered > fr.offered {
		return outcome{}, fmt.Errorf("fabric delivered %d packets of %d offered", fr.delivered, fr.offered)
	}

	timed := seg * segments
	chips := int64(fr.f.Spec().NumChips())
	vals := map[string]float64{"cluster.trunk_words": float64(fr.trunkWords() - trunk0)}
	fr.macro().since(mc0).into(vals, timed*chips)
	return outcome{
		failed: failed,
		cycles: timed, words: fr.f.ExternalWordsOut() - words0,
		digest: d.h, vals: vals,
	}, nil
}
