package exp

// The traffic-plane acceptance test: one seeded heavy-tailed trace
// drives the Raw router (both engines, live and replayed), the serve
// daemon, and the Click baseline to the identical per-destination
// delivered-word ledger — the ledger recorded in the trace itself.

import (
	"testing"

	"repro/internal/click"
	"repro/internal/core"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/traffic"
)

// ledgerSpec is a modest-rate heavy-tailed workload: low enough load
// that every offered word is delivered once in-flight work drains, so
// the delivered ledger equals the offered ledger exactly.
func ledgerSpec() traffic.Spec {
	return traffic.Spec{
		Pattern: "flows", Seed: 17, Rate: 0.15,
		Sizes: []int{64, 576, 1500}, Weights: []float64{7, 4, 1},
		Params: map[string]float64{"zipf": 1.2, "maxflow": 32},
	}
}

func TestTraceLedgerAcrossConsumers(t *testing.T) {
	const cyc, slices = 1024, 12
	w := traffic.MustBuild(ledgerSpec())
	tr, err := traffic.Record(w, cyc, slices)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("trace is empty")
	}
	want := tr.DstWords()
	replay := tr.Process(cyc)

	// Raw router: both engines, each driven once from the live process
	// and once from the recorded trace.
	live, err := w.OpenLoop(cyc)
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name   string
		engine raw.Engine
		proc   traffic.Process
	}{
		{"ref/live", raw.EngineRef, live},
		{"ref/trace", raw.EngineRef, replay},
		{"fast/trace", raw.EngineFast, replay},
		{"fast/live", raw.EngineFast, live},
	}
	for _, cfg := range configs {
		r, err := core.New(core.Options{ChipEngine: cfg.engine})
		if err != nil {
			t.Fatal(err)
		}
		got, drained := r.RunArrivals(cfg.proc, slices, 1<<20)
		if !drained {
			t.Fatalf("%s: router did not drain", cfg.name)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("%s: dst %d delivered %d words, trace ledger says %d (full: got %v want %v)",
					cfg.name, d, got[d], want[d], got, want)
			}
		}
	}

	// Click baseline: same process, same ledger.
	clickLedger, _, err := click.ReplayArrivals(router.CanonicalTable(), replay, slices)
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if clickLedger[d] != want[d] {
			t.Fatalf("click: dst %d delivered %d words, trace ledger says %d", d, clickLedger[d], want[d])
		}
	}

	// Serve daemon: the workload feeder admits the same arrivals; after
	// a clean drain the router's egress word counters match the ledger.
	feeder, err := serve.NewWorkloadFeeder(w, cyc)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := router.DefaultConfig()
	rr, err := core.New(core.Options{RouterConfig: &rcfg})
	if err != nil {
		t.Fatal(err)
	}
	d, err := serve.New(serve.Config{
		Router:      rr.Cycle(),
		Feeder:      feeder,
		SliceCycles: cyc,
		QueuePkts:   1 << 16,
		MaxSlices:   slices,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Forced {
		t.Fatal("serve drain was forced; ledger would be incomplete")
	}
	tot := d.Status().Ingest.Totals()
	if tot.ShedWords != 0 || tot.DrainDiscardedWords != 0 {
		t.Fatalf("serve shed %d / discarded %d words at rate 0.15; ledger invalid",
			tot.ShedWords, tot.DrainDiscardedWords)
	}
	for dst := range want {
		if got := rr.Cycle().OutputWords(dst); got != want[dst] {
			t.Fatalf("serve: dst %d delivered %d words, trace ledger says %d", dst, got, want[dst])
		}
	}
}
