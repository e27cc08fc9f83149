package fault_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The degrade→restore soak matrix: every seed builds a scenario where a
// crossbar tile freezes under load and recoverable noise (link stalls,
// flaps, DRAM spikes), the watchdog degrades the fabric, the tile thaws,
// and AutoRestore re-admits the port — with a checkpoint taken mid-arc,
// restored into a fresh router under the other cycle engine, and the
// continuation required to be bit-for-bit identical to the uninterrupted
// run. SOAK_SEEDS widens the matrix (make soak runs 20 under -race).

// xbarTiles maps port → crossbar tile (Figure 7-2 ring 5→6→10→9).
var xbarTiles = [4]int{5, 6, 10, 9}

// nonXbarTiles restricts noise freezes so only the scenario's designated
// crossbar freeze can trigger the watchdog.
func nonXbarTiles() []int {
	var out []int
	for t := 0; t < 16; t++ {
		if t != 5 && t != 6 && t != 10 && t != 9 {
			out = append(out, t)
		}
	}
	return out
}

func soakSeeds(t *testing.T) int {
	if v := os.Getenv("SOAK_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SOAK_SEEDS %q", v)
		}
		return n
	}
	return 2
}

func soakCfg(eng raw.Engine, ev *trace.EventLog) router.Config {
	cfg := router.DefaultConfig()
	cfg.Engine = eng
	cfg.Watchdog = true
	cfg.WatchdogCycles = 3000
	cfg.AutoRestore = true
	cfg.Checkpoint = true
	cfg.UnderrunQuanta = 8
	cfg.ReprobeQuanta = 16
	cfg.Events = ev
	// The telemetry plane rides along the whole soak: it must neither
	// perturb the arc nor break checkpoint/restore determinism.
	cfg.Metrics = telemetry.New(telemetry.Config{})
	return cfg
}

// soakSchedule composes the per-seed scenario: recoverable noise plus
// one crossbar freeze long enough for the watchdog to degrade and late
// enough to thaw into the drain phase.
func soakSchedule(seed uint64) (*fault.Schedule, int) {
	noise := fault.Random(seed, fault.RandomOptions{
		Horizon: 10000, MaxStalls: 4, MaxFlaps: 2, MaxFreezes: 1,
		MaxDRAM: 2, MaxStallCycles: 1500, Tiles: nonXbarTiles(),
	})
	rng := traffic.NewRNG(seed ^ 0xD06)
	port := rng.Intn(4)
	start := int64(4000 + rng.Intn(4000))
	dur := int64(12000 + rng.Intn(4000))
	s := &fault.Schedule{Events: append(noise.Events, fault.Event{
		Kind: fault.KindFreeze, Start: start, Dur: dur, Tile: xbarTiles[port],
	})}
	return s, port
}

type soakRun struct {
	r    *router.Router
	ev   *trace.EventLog
	sent map[uint16]ip.Packet
}

func newSoakRun(t *testing.T, eng raw.Engine, sched *fault.Schedule) *soakRun {
	t.Helper()
	ev := &trace.EventLog{}
	r, err := router.New(soakCfg(eng, ev))
	if err != nil {
		t.Fatal(err)
	}
	r.Chip.InstallFaults(fault.NewInjector(sched, 16))
	r.ScheduleControls(sched)
	return &soakRun{r: r, ev: ev, sent: map[uint16]ip.Packet{}}
}

// feedPhase drives seeded traffic to the mid-arc cycle; the input log is
// complete by then, so the drain phase needs no harness state to replay.
func (s *soakRun) feedPhase(trafficSeed uint64) {
	rng := traffic.NewRNG(trafficSeed)
	id := uint16(0)
	sizes := []int{64, 128, 256, 512}
	for c := 0; c < 16000; c += 200 {
		for p := 0; p < 4; p++ {
			for s.r.InputBacklogWords(p) < 2048 {
				id++
				pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)),
					traffic.PortAddr(rng.Intn(4), uint32(id)), 64, sizes[rng.Intn(4)], id)
				s.sent[id] = pkt
				s.r.OfferPacket(p, &pkt)
			}
		}
		s.r.Run(200)
	}
}

func TestSoakDegradeRestoreMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak matrix skipped in -short")
	}
	seeds := soakSeeds(t)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		sched, port := soakSchedule(seed)
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			// Uninterrupted reference: feed, checkpoint mid-arc, drain dry.
			ref := newSoakRun(t, raw.EngineRef, sched)
			ref.feedPhase(seed + 100)
			blob, err := ref.r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ref.r.Run(34000)
			refFinal, err := ref.r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// The arc must actually have happened: degrade, re-admit, live.
			log := ref.ev.String()
			for _, want := range []string{"degrade", "restore-drain", "readmit", "live"} {
				if !strings.Contains(log, want) {
					t.Fatalf("seed %d (port %d, %q): event log missing %q:\n%s",
						seed, port, sched, want, log)
				}
			}
			if ref.r.Failed() || ref.r.DeadPort() >= 0 {
				t.Fatalf("seed %d: fabric not healthy after arc: dead=%d failed=%v",
					seed, ref.r.DeadPort(), ref.r.Failed())
			}

			// The flight recorder must have seen the same arc the event
			// log did, under the typed kinds' stable wire names.
			snap := ref.r.TelemetrySnapshot()
			kinds := map[string]bool{}
			for _, e := range snap.Events {
				kinds[e.Kind] = true
			}
			for _, want := range []string{"degrade", "restore-drain", "readmit", "live"} {
				if !kinds[want] {
					t.Fatalf("seed %d: flight recorder missing %q; got %v", seed, want, kinds)
				}
			}

			// Conservation and integrity over the whole history.
			var in, out int64
			for p := 0; p < 4; p++ {
				in += ref.r.Stats().PktsIn[p]
				out += ref.r.Stats().PktsOut[p]
			}
			if in != out+ref.r.Stats().FabricLost {
				t.Fatalf("seed %d: conservation: PktsIn %d != PktsOut %d + FabricLost %d",
					seed, in, out, ref.r.Stats().FabricLost)
			}
			seen := map[uint16]bool{}
			for p := 0; p < 4; p++ {
				pkts, err := ref.r.DrainOutput(p)
				if err != nil {
					t.Fatalf("seed %d: output %d corrupt: %v", seed, p, err)
				}
				for _, pk := range pkts {
					want, ok := ref.sent[pk.Header.ID]
					if !ok {
						t.Fatalf("seed %d: unknown packet id %d delivered", seed, pk.Header.ID)
					}
					if seen[pk.Header.ID] {
						t.Fatalf("seed %d: packet id %d delivered twice", seed, pk.Header.ID)
					}
					seen[pk.Header.ID] = true
					for i := range want.Payload {
						if pk.Payload[i] != want.Payload[i] {
							t.Fatalf("seed %d: id %d payload word %d corrupted", seed, pk.Header.ID, i)
						}
					}
				}
			}

			// Crash-and-restore under the other cycle engine: the restored
			// continuation must land on the identical final checkpoint.
			// This is the cross-engine checkpoint/restore gate — a
			// ref-written blob replayed through the fast engine's own step
			// path, verified by digest.
			res := newSoakRun(t, raw.EngineFast, sched)
			if err := res.r.RestoreSnapshot(blob); err != nil {
				t.Fatalf("seed %d: restore: %v", seed, err)
			}
			res.r.Run(34000)
			resFinal, err := res.r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refFinal, resFinal) {
				t.Fatalf("seed %d: restored continuation (fast engine) diverged from uninterrupted run", seed)
			}
		})
	}
}
