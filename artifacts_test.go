package repro_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

const artifactsGolden = "testdata/artifacts.golden"

var update = flag.Bool("update", false, "rewrite "+artifactsGolden+" from this run")

// An artifactCase is one scenario of the artifact golden: run drives it
// on one engine and returns its digest fields.
type artifactCase struct {
	name string
	run  func(t *testing.T, eng raw.Engine) string
}

// digest is the FNV-64a hash of b.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// serveDaymini runs the serve daemon on the daymini preset, as
// rawrouter -serve -workload daymini does, writing a periodic checkpoint
// every 4 slices to path and the drain checkpoint last. restore, if
// non-empty, is the checkpoint file the run resumes from. It returns the
// written file's length and digest.
func serveDaymini(t *testing.T, eng raw.Engine, path, restore string, maxSlices int64) string {
	t.Helper()
	rcfg := router.DefaultConfig()
	rcfg.Engine = eng
	rcfg.Checkpoint = true
	rcfg.Metrics = telemetry.New(telemetry.Config{})
	rcfg.Events = &trace.EventLog{}
	r, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Presets()["daymini"]
	spec.Ports = len(router.Layout)
	wl, err := traffic.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	feeder, err := serve.NewWorkloadFeeder(wl, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	if restore != "" {
		if blob, err = os.ReadFile(restore); err != nil {
			t.Fatal(err)
		}
	}
	d, err := serve.New(serve.Config{
		Router:                r,
		ClockHz:               rcfg.ClockHz,
		Feeder:                feeder,
		SliceCycles:           4096,
		CheckpointPath:        path,
		CheckpointEverySlices: 4,
		MaxSlices:             maxSlices,
		Base:                  &fault.Schedule{},
		Restore:               blob,
		Collector:             rcfg.Metrics,
		Events:                rcfg.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cycle=%d slice=%d bytes=%d file=%016x", res.Cycle, res.Slice, len(file), digest(file))
}

// fabricSnapshots drives f with 256 B packets between rotating external
// pairs, 200 cycles a round, and takes a FABCKPT1 snapshot after each
// round named in at. It returns the fabric's cycle, delivered packets,
// fingerprint and the snapshots' digests.
func fabricSnapshots(t *testing.T, f *cluster.Fabric, rounds int, at ...int) string {
	t.Helper()
	ext := f.Spec().Externals()
	id := uint16(0)
	var b strings.Builder
	for i := 1; i <= rounds; i++ {
		for src := 0; src < ext; src++ {
			if f.InputBacklogWords(src) < 2048 {
				id++
				dst := (src + 1 + int(id)%(ext-1)) % ext
				pkt := ip.NewPacket(traffic.PortAddr(src, uint32(id)),
					traffic.PortAddr(dst, uint32(id)), 64, 256, id)
				f.OfferPacket(src, &pkt)
			}
		}
		f.Run(200)
		for e := 0; e < ext; e++ {
			if _, err := f.DrainOutput(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range at {
			if r != i {
				continue
			}
			blob, err := f.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " ckpt@%d=%016x", f.Cycle(), digest(blob))
		}
	}
	if err := f.ConservationError(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cycle=%d delivered=%d fingerprint=%016x%s",
		f.Cycle(), f.ExternalPktsOut(), f.Fingerprint(), b.String())
}

// lifecycleFabric builds a checkpointing fabric on spec with the given
// chip and trunk lifecycle schedule.
func lifecycleFabric(t *testing.T, spec cluster.Spec, eng raw.Engine, heal bool, sched string) *cluster.Fabric {
	t.Helper()
	cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig()}
	cfg.Router.Engine = eng
	cfg.Router.Checkpoint = true
	cfg.Heal = cluster.HealConfig{Enabled: heal, Seed: 42}
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.ApplySchedule(fault.MustParse(sched))
	return f
}

func artifactCases(dir string) []artifactCase {
	return []artifactCase{
		{"serve-daymini-periodic", func(t *testing.T, eng raw.Engine) string {
			return serveDaymini(t, eng, filepath.Join(dir, eng.String()+"-srv.bin"), "", 12)
		}},
		{"serve-daymini-restore", func(t *testing.T, eng raw.Engine) string {
			// Resumes from the reference engine's periodic run, as a
			// restart on either engine would.
			return serveDaymini(t, eng, filepath.Join(dir, eng.String()+"-srv-rs.bin"),
				filepath.Join(dir, raw.EngineRef.String()+"-srv.bin"), 32)
		}},
		{"fabric-ring4-heal", func(t *testing.T, eng raw.Engine) string {
			// Snapshots with the trunk dark, with the chip down, and
			// after the re-admission.
			f := lifecycleFabric(t, cluster.Ring(4), eng, true,
				"killtrunk@1000:c0-c1;restoretrunk@3000:c0-c1;killchip@4000:c2;restorechip@6000:c2")
			return fabricSnapshots(t, f, 40, 10, 25, 40)
		}},
		{"fabric-mesh4x4-chiploss", func(t *testing.T, eng raw.Engine) string {
			// Snapshots with the chip down and after the re-admission.
			f := lifecycleFabric(t, cluster.Mesh(4, 4), eng, false,
				"killchip@800:c5;restorechip@2000:c5")
			return fabricSnapshots(t, f, 15, 6, 15)
		}},
		{"fabsim-ring4", func(t *testing.T, eng raw.Engine) string {
			// fabsim -topology ring -chips 4 for 60 rounds: the
			// antipodal 1,024 B permutation through exp.RunFabric's
			// loop, digesting every packet the externals deliver.
			spec := cluster.Ring(4)
			cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig()}
			cfg.Router.Engine = eng
			f, err := cluster.NewFabric(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ws := cli.FabricDefault(spec.Externals())
			ws.Ports = spec.Externals()
			wl, err := traffic.Build(ws)
			if err != nil {
				t.Fatal(err)
			}
			srcs, err := wl.Sources()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			id := uint16(0)
			for i := 0; i < 60; i++ {
				for e, src := range srcs {
					for tries := 0; f.InputBacklogWords(e) < 4096 && tries < 64; tries++ {
						id++
						p := src.Next()
						pkt := ip.NewPacket(p.SrcIP, p.DstIP, 64, p.SizeBytes, id)
						f.OfferPacket(e, &pkt)
					}
				}
				f.Run(200)
				for e := range srcs {
					pkts, err := f.DrainOutput(e)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range pkts {
						fmt.Fprintf(h, "%d:%x;", e, p.Words())
					}
				}
			}
			if err := f.DeliveryError(); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("cycle=%d delivered=%d out=%016x fingerprint=%016x",
				f.Cycle(), f.ExternalPktsOut(), h.Sum64(), f.Fingerprint())
		}},
	}
}

// TestArtifactGolden pins the artifacts ref-vs-fast equality cannot
// see change when both engines share the code that changed: the serve
// daemon's SRVCKPT1 file after periodic checkpoints and the file its
// restored continuation writes, FABCKPT1 blobs along a healed ring-4
// arc and a mesh-4x4 chip-loss arc, and a ring-4 fabsim run's delivered
// packets and fingerprint. Each scenario must print the same line on
// both engines, and that line must match testdata/artifacts.golden.
// Only a deliberate behaviour change rewrites the file, with
// go test . -run TestArtifactGolden -update.
func TestArtifactGolden(t *testing.T) {
	want := map[string]string{}
	if !*update {
		f, err := os.Open(artifactsGolden)
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
	for _, c := range artifactCases(t.TempDir()) {
		ref := c.name + " " + c.run(t, raw.EngineRef)
		fast := c.name + " " + c.run(t, raw.EngineFast)
		if ref != fast {
			t.Errorf("engines differ:\nref  %s\nfast %s", ref, fast)
		}
		lines = append(lines, ref)
		if !*update && ref != want[c.name] {
			t.Errorf("artifact moved:\ngot  %s\nwant %s", ref, want[c.name])
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(artifactsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactsGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
