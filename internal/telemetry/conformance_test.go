package telemetry_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestExpositionConformance runs the text-format checker over three
// real Prometheus bodies: a fast-engine router whose frozen crossbar
// tile degraded a port (recovery events, macro disarms), a ring fabric
// that healed around a dead trunk, and a serve daemon's /metrics.
func TestExpositionConformance(t *testing.T) {
	for name, body := range map[string][]byte{
		"router": routerBody(t), "fabric": fabricBody(t), "daemon": daemonBody(t),
	} {
		if err := telemetry.CheckExposition(body); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func routerBody(t *testing.T) []byte {
	cfg := router.DefaultConfig()
	cfg.Engine = raw.EngineFast
	cfg.Watchdog = true
	cfg.Metrics = telemetry.New(telemetry.Config{})
	cfg.Events = &trace.EventLog{}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.MustParse("freeze@5000+100000000:t6;restore@30000:p1")
	r.ScheduleControls(sched)
	r.Chip.InstallFaults(fault.NewInjector(sched, router.NumTiles))
	id := uint16(0)
	for c := 0; c < 45000; c += 500 {
		for p := 0; p < 4; p++ {
			for r.InputBacklogWords(p) < 2048 {
				id++
				pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr((p+1)%4, uint32(id)), 64, 256, id)
				r.OfferPacket(p, &pkt)
			}
		}
		r.Run(500)
	}
	snap := r.TelemetrySnapshot()
	var disarms int64
	for _, d := range snap.MacroDisarms {
		disarms += d.Count
	}
	if len(snap.EventTotals) < 2 || disarms == 0 {
		t.Fatalf("router body lacks events (%v) or macro disarms (%d)", snap.EventTotals, disarms)
	}
	body, err := snap.Encode("prom")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func fabricBody(t *testing.T) []byte {
	cfg := cluster.Config{Topology: cluster.Ring(4), Router: router.DefaultConfig(), Heal: cluster.HealConfig{Enabled: true}}
	cfg.Router.Engine = raw.EngineFast
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.ApplySchedule(fault.MustParse("killtrunk@2000:c0-c1;restoretrunk@8000:c0-c1"))
	wl, err := traffic.Build(traffic.Spec{Pattern: "uniform", Ports: cfg.Topology.Externals(), Size: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := wl.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.RunFabric(f, srcs, 60); err != nil {
		t.Fatal(err)
	}
	snap := f.TelemetrySnapshot()
	if snap.Heal == nil || snap.Heal.Epochs == 0 {
		t.Fatalf("fabric never healed: %+v", snap.Heal)
	}
	body, err := snap.Encode("prom")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func daemonBody(t *testing.T) []byte {
	cfg := router.DefaultConfig()
	cfg.Engine = raw.EngineFast
	cfg.Watchdog = true
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feeder, err := serve.NewWorkloadFeeder(traffic.MustBuild(traffic.Spec{Pattern: "permutation", Size: 1024, Seed: 1}), 4096)
	if err != nil {
		t.Fatal(err)
	}
	d, err := serve.New(serve.Config{Router: r, Feeder: feeder, MaxSlices: 12, DrainBudgetSlices: 2, Collector: cfg.Metrics,
		Base: fault.MustParse("freeze@20000+100000000:t6")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != telemetry.ContentType("prom") {
		t.Fatalf("/metrics: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.Bytes()
}
