package cluster_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func mustFabric(t *testing.T, spec cluster.Spec, mut func(*cluster.Config)) *cluster.Fabric {
	t.Helper()
	cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig()}
	if mut != nil {
		mut(&cfg)
	}
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// smallSpecs are the cheap instances behavior tests sweep (the 16-chip
// mesh is exercised by the conformance suite).
func smallSpecs() []cluster.Spec {
	return []cluster.Spec{cluster.Ring(2), cluster.Ring(3), cluster.Mesh(2, 2), cluster.FatTree(2)}
}

// TestFabricConfigRejects pins the template invariants: the fabric owns
// tables, event logs, and collectors, a tracer cannot be shared by chips
// stepping concurrently, and the stream-rewriting extensions cannot
// cross trunks.
func TestFabricConfigRejects(t *testing.T) {
	muts := []func(*router.Config){
		func(c *router.Config) { c.Table = router.CanonicalTable() },
		func(c *router.Config) { c.Multicast = true },
		func(c *router.Config) { c.Crypto = true },
		func(c *router.Config) { c.Tracer = trace.NewRecorder(router.NumTiles, 0, 1) },
	}
	for i, mut := range muts {
		rc := router.DefaultConfig()
		mut(&rc)
		if _, err := cluster.NewFabric(cluster.Config{Topology: cluster.Ring(2), Router: rc}); err == nil {
			t.Errorf("case %d: want config rejection", i)
		}
	}
	if _, err := cluster.NewFabric(cluster.Config{Topology: cluster.Ring(1)}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestFabricAllPairs routes one packet between every external pair of
// every small topology (the 2-chip ring of the §8.5 composition study
// included) and checks payload integrity plus trunk conservation.
func TestFabricAllPairs(t *testing.T) {
	for _, spec := range smallSpecs() {
		f := mustFabric(t, spec, nil)
		next := uint16(0)
		for src := 0; src < spec.Externals(); src++ {
			for dst := 0; dst < spec.Externals(); dst++ {
				if src == dst {
					continue
				}
				next++
				pkt := ip.NewPacket(traffic.PortAddr(src, uint32(next)),
					traffic.PortAddr(dst, uint32(next)), 64, 128, next)
				f.OfferPacket(src, &pkt)
				var got []ip.Packet
				for i := 0; i < 600 && len(got) == 0; i++ {
					f.Run(100)
					out, err := f.DrainOutput(dst)
					if err != nil {
						t.Fatalf("%s: %d->%d: %v", spec, src, dst, err)
					}
					got = out
				}
				if len(got) != 1 {
					t.Fatalf("%s: %d->%d never delivered", spec, src, dst)
				}
				if got[0].Header.Dst != traffic.PortAddr(dst, uint32(next)) {
					t.Fatalf("%s: %d->%d delivered wrong packet", spec, src, dst)
				}
				for i, w := range pkt.Payload {
					if got[0].Payload[i] != w {
						t.Fatalf("%s: %d->%d payload word %d corrupted", spec, src, dst, i)
					}
				}
			}
		}
		if err := f.ConservationError(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

// TestFabricLocalTrafficAvoidsTrunks: a same-chip packet on every
// topology never crosses a trunk.
func TestFabricLocalTrafficAvoidsTrunks(t *testing.T) {
	for _, spec := range smallSpecs() {
		chip0exts := []int{}
		for e := 0; e < spec.Externals(); e++ {
			if c, _ := spec.ExtPort(e); c == 0 {
				chip0exts = append(chip0exts, e)
			}
		}
		if len(chip0exts) < 2 {
			continue
		}
		f := mustFabric(t, spec, nil)
		src, dst := chip0exts[0], chip0exts[1]
		pkt := ip.NewPacket(traffic.PortAddr(src, 1), traffic.PortAddr(dst, 7), 64, 128, 5)
		f.OfferPacket(src, &pkt)
		ok := false
		for i := 0; i < 300 && !ok; i++ {
			f.Run(100)
			out, err := f.DrainOutput(dst)
			if err != nil {
				t.Fatal(err)
			}
			ok = len(out) == 1
		}
		if !ok {
			t.Fatalf("%s: local packet never delivered", spec)
		}
		snap := f.TelemetrySnapshot()
		for _, tr := range snap.Trunks {
			for d := 0; d < 2; d++ {
				if tr.Dir[d].Drained != 0 {
					t.Fatalf("%s: local packet crossed trunk %d", spec, tr.Trunk)
				}
			}
		}
	}
}

// TestFabricKillRestore exercises the lifecycle surface directly: kill a
// chip, watch offered traffic drop at its externals and trunk words die
// at its pins, re-admit it, and see service resume. Conservation holds
// throughout.
func TestFabricKillRestore(t *testing.T) {
	spec := cluster.Ring(3)
	f := mustFabric(t, spec, nil)
	victim := 1
	vExt, _ := spec.ExternalOf(victim, 0)

	// Cross-fabric traffic through and to the victim.
	feed := func(n int) {
		id := uint16(0)
		for i := 0; i < n; i++ {
			for src := 0; src < spec.Externals(); src++ {
				if f.InputBacklogWords(src) < 2048 && !f.ChipDead(srcChip(spec, src)) {
					id++
					dst := (src + 2) % spec.Externals()
					pkt := ip.NewPacket(traffic.PortAddr(src, uint32(id)),
						traffic.PortAddr(dst, uint32(id)), 64, 256, id)
					f.OfferPacket(src, &pkt)
				}
			}
			f.Run(200)
		}
	}
	feed(30)
	if err := f.KillChip(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.KillChip(victim); err == nil {
		t.Fatal("double kill accepted")
	}
	if !f.ChipDead(victim) {
		t.Fatal("victim not dead")
	}
	pkt := ip.NewPacket(traffic.PortAddr(vExt, 1), traffic.PortAddr(0, 1), 64, 128, 9)
	f.OfferPacket(vExt, &pkt)
	if f.ExtDropped(vExt) == 0 {
		t.Fatal("offer at dead chip's external not counted dropped")
	}
	feed(30)
	if err := f.ConservationError(); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreChip(victim); err != nil {
		t.Fatal(err)
	}
	if f.ChipDead(victim) || f.ChipEpoch(victim) != 1 {
		t.Fatalf("restore left dead=%v epoch=%d", f.ChipDead(victim), f.ChipEpoch(victim))
	}
	if err := f.RestoreChip(victim); err == nil {
		t.Fatal("restore of live chip accepted")
	}
	// Replacement chip serves its external again.
	before := f.ExternalPktsOut()
	pkt2 := ip.NewPacket(traffic.PortAddr(0, 2), traffic.PortAddr(vExt, 2), 64, 128, 11)
	f.OfferPacket(0, &pkt2)
	ok := false
	for i := 0; i < 600 && !ok; i++ {
		f.Run(100)
		out, err := f.DrainOutput(vExt)
		if err != nil {
			t.Fatal(err)
		}
		ok = len(out) >= 1
	}
	if !ok {
		t.Fatalf("replacement chip never delivered (pktsOut %d -> %d)", before, f.ExternalPktsOut())
	}
	if err := f.ConservationError(); err != nil {
		t.Fatal(err)
	}
	ev := f.Events().Events
	if len(ev) != 2 || ev[0].Kind.String() != "chip-kill" || ev[1].Kind.String() != "chip-restore" {
		t.Fatalf("fabric event log %v", ev)
	}
}

func srcChip(spec cluster.Spec, ext int) int {
	c, _ := spec.ExtPort(ext)
	return c
}

// TestFabricScheduledControls drives the same lifecycle through the
// fault grammar: killchip@/restorechip@ fire exactly at their cycles for
// any Run partitioning.
func TestFabricScheduledControls(t *testing.T) {
	sched := fault.MustParse("killchip@1000:c1;restorechip@3000:c1")
	run := func(chunks []int64) *cluster.Fabric {
		f := mustFabric(t, cluster.Ring(3), nil)
		f.ApplySchedule(sched)
		for _, n := range chunks {
			f.Run(n)
		}
		return f
	}
	a := run([]int64{5000})
	b := run([]int64{999, 1, 1, 999, 1500, 1500})
	for _, f := range []*cluster.Fabric{a, b} {
		ev := f.Events().Events
		if len(ev) != 2 {
			t.Fatalf("events %v", ev)
		}
		if ev[0].Cycle != 1000 || ev[0].Kind.String() != "chip-kill" ||
			ev[1].Cycle != 3000 || ev[1].Kind.String() != "chip-restore" {
			t.Fatalf("control firing off-schedule: %v", ev)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("control firing depends on Run partitioning")
	}
}

// TestFabricStepIndependentOfProcs pins that chip-parallel stepping is
// invisible: a healed mesh-4x4 riding a trunk and chip loss arc ends in
// the same state with one worker as with four. GOMAXPROCS is
// process-wide, so the test must not run in parallel.
func TestFabricStepIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spec := cluster.Mesh(4, 4)
	sched := fault.MustParse(
		"killtrunk@500:c5-c6;killchip@1500:c10;restoretrunk@3000:c5-c6;restorechip@4000:c10")
	type result struct {
		fp, dig uint64
		blob    []byte
		fabric  telemetry.FabricSnapshot
		chips   []telemetry.Snapshot
	}
	run := func(procs int) result {
		runtime.GOMAXPROCS(procs)
		f := mustFabric(t, spec, func(c *cluster.Config) {
			c.Router.Engine = raw.EngineFast
			c.Router.Checkpoint = true
			c.Metrics = true
			c.Heal = cluster.HealConfig{Enabled: true, Seed: 42}
		})
		f.ApplySchedule(sched)
		var r result
		r.fp, r.dig = driveConf(t, f, spec, 6000, 0)
		if err := f.DeliveryError(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if d := f.Delivery(); d.HealEpochs != 4 {
			t.Fatalf("GOMAXPROCS=%d: heal epochs %d, want 4", procs, d.HealEpochs)
		}
		var err error
		if r.blob, err = f.Snapshot(); err != nil {
			t.Fatal(err)
		}
		r.fabric = f.TelemetrySnapshot()
		for k := 0; k < spec.NumChips(); k++ {
			r.chips = append(r.chips, f.Chip(k).TelemetrySnapshot())
		}
		return r
	}
	one, four := run(1), run(4)
	if one.fp != four.fp || one.dig != four.dig {
		t.Errorf("GOMAXPROCS=4 (fingerprint %#x, output %#x) != GOMAXPROCS=1 (%#x, %#x)",
			four.fp, four.dig, one.fp, one.dig)
	}
	if !bytes.Equal(one.blob, four.blob) {
		t.Error("FABCKPT1 blobs differ between GOMAXPROCS=1 and 4")
	}
	if !reflect.DeepEqual(one.fabric, four.fabric) {
		t.Error("fabric telemetry differs between GOMAXPROCS=1 and 4")
	}
	for k := range one.chips {
		if !reflect.DeepEqual(one.chips[k], four.chips[k]) {
			t.Errorf("chip %d telemetry differs between GOMAXPROCS=1 and 4", k)
		}
	}
}
