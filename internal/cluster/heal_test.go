package cluster_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/traffic"
)

// Behavior tests for the healing plane: held-frame accounting at chip
// kill, adaptive rerouting around a dead chip, trunk ARQ retransmission
// over a detour, typed partition errors, and ref/fast conformance with
// healing armed. heal_internal_test.go pins the route math;
// soak_heal_test.go runs the seeded checkpoint/restore arcs.

// healFeed is the heavy antipodal workload (external e -> antipode,
// always cross-chip, fill-to-4096 like cmd/fabsim): enough in-flight
// words that a mid-run kill strands whole frames. Outputs are drained
// every round so the egress dup filter runs.
func healFeed(t *testing.T, f *cluster.Fabric, spec cluster.Spec, rounds int, id uint16) uint16 {
	t.Helper()
	ext := spec.Externals()
	for i := 0; i < rounds; i++ {
		for e := 0; e < ext; e++ {
			// Refused offers never grow the backlog; bound by attempts.
			for tries := 0; f.InputBacklogWords(e) < 4096 && tries < 64; tries++ {
				id++
				dst := (e + ext/2) % ext
				pkt := ip.NewPacket(traffic.PortAddr(e, uint32(id)),
					traffic.PortAddr(dst, uint32(id)), 64, 1024, id)
				f.OfferPacket(e, &pkt)
			}
		}
		f.Run(200)
		for e := 0; e < ext; e++ {
			if _, err := f.DrainOutput(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return id
}

// TestKillChipAccountsHeldFrames is the conservation regression for
// kill-with-nonempty-buffers (healing off): words resident in the victim
// and stranded in its trunk framers must land in the chip-loss ledger
// counter, and the end-to-end ledger must still balance.
func TestKillChipAccountsHeldFrames(t *testing.T) {
	spec := cluster.Ring(3)
	f := mustFabric(t, spec, nil)
	healFeed(t, f, spec, 10, 0)
	const victim = 1
	if err := f.KillChip(victim); err != nil {
		t.Fatal(err)
	}
	if got := f.DroppedByCause("chip-loss"); got <= 0 {
		t.Fatalf("chip-loss drops %d after killing a loaded chip, want > 0", got)
	}
	if err := f.ConservationError(); err != nil {
		t.Fatal(err)
	}
	if err := f.DeliveryError(); err != nil {
		t.Fatal(err)
	}
	// The fabric keeps running and the ledger keeps balancing.
	healFeed(t, f, spec, 10, 10000)
	if err := f.DeliveryError(); err != nil {
		t.Fatal(err)
	}
}

// TestHealReroute kills a middle ring chip with healing armed: the next
// heal epoch must swap tables (reroutes), surviving externals must keep
// delivering over the detour, traffic for the victim's externals must be
// counted dest-dead at ingress, and the ledger must balance throughout.
func TestHealReroute(t *testing.T) {
	spec := cluster.Ring(4)
	f := mustFabric(t, spec, func(c *cluster.Config) {
		c.Heal = cluster.HealConfig{Enabled: true}
	})
	id := healFeed(t, f, spec, 10, 0)
	if err := f.KillChip(2); err != nil {
		t.Fatal(err)
	}
	before := f.ExternalWordsOut()
	healFeed(t, f, spec, 20, id)
	d := f.Delivery()
	if d.HealEpochs != 1 {
		t.Fatalf("heal epochs %d, want 1", d.HealEpochs)
	}
	if d.Reroutes == 0 {
		t.Fatal("no tables rerouted after a chip kill on a ring")
	}
	if f.ExternalWordsOut() == before {
		t.Fatal("surviving externals stopped delivering after the kill")
	}
	if f.DroppedByCause("dest-dead") == 0 {
		t.Fatal("traffic for the victim's externals not counted dest-dead")
	}
	if err := f.DeliveryError(); err != nil {
		t.Fatal(err)
	}
}

// TestTrunkARQ darkens one ring-3 trunk mid-traffic: frames stranded at
// the dark link must retransmit over the two-hop detour, the link must
// come back on restore, and the ledger must balance at quiescence with
// zero frames still pending.
func TestTrunkARQ(t *testing.T) {
	spec := cluster.Ring(3)
	f := mustFabric(t, spec, func(c *cluster.Config) {
		c.Heal = cluster.HealConfig{Enabled: true, Seed: 7}
	})
	id := healFeed(t, f, spec, 10, 0)
	if err := f.KillTrunk(0, 1); err != nil {
		t.Fatal(err)
	}
	id = healFeed(t, f, spec, 30, id)
	d := f.Delivery()
	if d.RetransFrames == 0 {
		t.Fatal("no frames retransmitted over the detour while the trunk was dark")
	}
	if err := f.DeliveryError(); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreTrunk(0, 1); err != nil {
		t.Fatal(err)
	}
	healFeed(t, f, spec, 10, id)
	// Quiesce: no new offers, long drain (max ARQ backoff is ~4k cycles).
	f.Run(12000)
	for e := 0; e < spec.Externals(); e++ {
		if _, err := f.DrainOutput(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.DeliveryError(); err != nil {
		t.Fatal(err)
	}
	if d := f.Delivery(); d.PendingFrames != 0 {
		t.Fatalf("%d frames still pending retransmit after restore and drain", d.PendingFrames)
	}
	// Double-kill and double-restore are refused, not silently absorbed.
	if err := f.RestoreTrunk(0, 1); err == nil {
		t.Fatal("restoring a live trunk succeeded")
	}
}

// TestPartitionError pins the typed failure on disconnected survivors:
// a 2-chip ring losing a chip isolates the other; a 1-wide mesh losing
// its middle chip splits in two. Both must surface *PartitionError from
// DeliveryError (with the spec's self-reported risk in the message) and
// clear it when the victim is re-admitted.
func TestPartitionError(t *testing.T) {
	cases := []struct {
		spec       cluster.Spec
		victim     int
		components int
		isolated   int
	}{
		{cluster.Ring(2), 0, 1, 1},
		{cluster.Mesh(3, 1), 1, 2, 2},
	}
	for _, c := range cases {
		f := mustFabric(t, c.spec, func(cf *cluster.Config) {
			cf.Heal = cluster.HealConfig{Enabled: true}
		})
		if risk := c.spec.PartitionRisk(); risk == "" {
			t.Fatalf("%s: spec does not self-report partition risk", c.spec)
		}
		if err := f.KillChip(c.victim); err != nil {
			t.Fatal(err)
		}
		err := f.DeliveryError()
		var pe *cluster.PartitionError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: DeliveryError = %v, want *PartitionError", c.spec, err)
		}
		if pe.Components != c.components || len(pe.Isolated) != c.isolated {
			t.Fatalf("%s: partition comps=%d isolated=%v, want comps=%d |isolated|=%d",
				c.spec, pe.Components, pe.Isolated, c.components, c.isolated)
		}
		if !strings.Contains(pe.Error(), c.spec.PartitionRisk()) {
			t.Fatalf("%s: partition message %q omits the spec risk", c.spec, pe.Error())
		}
		if err := f.RestoreChip(c.victim); err != nil {
			t.Fatal(err)
		}
		if err := f.DeliveryError(); err != nil {
			t.Fatalf("%s: partition not cleared by re-admission: %v", c.spec, err)
		}
	}
}

// TestHealConformance runs a full heal arc (trunk kill/restore, then
// chip kill/restore) with healing armed and fingerprint-diffs ref
// against fast: rerouting, ARQ re-drives, and flow tagging must be
// bit-for-bit engine-independent.
func TestHealConformance(t *testing.T) {
	spec := cluster.Ring(4)
	sched := fault.MustParse(
		"killtrunk@1000:c0-c1;restoretrunk@5000:c0-c1;killchip@8000:c2;restorechip@12000:c2")
	run := func(engine raw.Engine) (uint64, uint64) {
		f := mustFabric(t, spec, func(c *cluster.Config) {
			c.Router.Engine = engine
			c.Heal = cluster.HealConfig{Enabled: true, Seed: 42}
		})
		f.ApplySchedule(sched)
		fp, dig := driveConf(t, f, spec, 16000, 0)
		if err := f.DeliveryError(); err != nil {
			t.Fatal(err)
		}
		if d := f.Delivery(); d.HealEpochs != 4 {
			t.Fatalf("heal epochs %d, want 4", d.HealEpochs)
		}
		return fp, dig
	}
	refFP, refDig := run(raw.EngineRef)
	fp, dig := run(raw.EngineFast)
	if fp != refFP {
		t.Errorf("fast fingerprint %#x != ref %#x", fp, refFP)
	}
	if dig != refDig {
		t.Errorf("fast output digest %#x != ref %#x", dig, refDig)
	}
}

// TestHealControlsAtOneCycle fires two trunk kills at one cycle, and
// later their two restores at another, under traffic. Each control
// re-heals and installs a new table on every chip whose routes moved,
// so a chip takes two installs with no cycle between them while its
// lookups are in flight; the installs land in a different phase of
// those lookups at each start cycle. On both engines every packet must
// arrive, and ref and fast must agree.
func TestHealControlsAtOneCycle(t *testing.T) {
	spec := cluster.Mesh(2, 2)
	for at := int64(1000); at < 1012; at++ {
		sched := fault.MustParse(fmt.Sprintf(
			"killtrunk@%d:c0-c1;killtrunk@%[1]d:c2-c3;restoretrunk@%d:c0-c1;restoretrunk@%[2]d:c2-c3",
			at, at+1500))
		var fps, digs [2]uint64
		for i, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
			f := mustFabric(t, spec, func(c *cluster.Config) {
				c.Router.Engine = eng
				c.Heal = cluster.HealConfig{Enabled: true, Seed: 42}
			})
			f.ApplySchedule(sched)
			fps[i], digs[i] = driveConf(t, f, spec, 4000, 0)
			if err := f.DeliveryError(); err != nil {
				t.Fatalf("%v, controls at %d: %v", eng, at, err)
			}
			if d := f.Delivery(); d.HealEpochs != 4 {
				t.Fatalf("%v, controls at %d: heal epochs %d, want 4", eng, at, d.HealEpochs)
			}
		}
		if fps[0] != fps[1] || digs[0] != digs[1] {
			t.Fatalf("controls at %d: ref and fast diverge", at)
		}
	}
}
