package main

import "repro/internal/raw"

// metricDef declares one reported metric. BENCHMARK.json lists the same
// metrics; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, printed by every
// untraced run. Bounds are the share of the parent's median by which a
// metric may worsen before a change counts as a regression, each set from
// that metric's own spread over ten seeds (README.md, Baselines).
var endToEnd = []metricDef{
	{Name: "host_ns_per_cycle", Unit: "ns", Better: "lower", Bound: 0.20},
	{Name: "host_cpu_ns_per_cycle", Unit: "ns", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the traced run's metrics, one set per module. A workload
// that bypasses a layer reports 0 for it. Times are seconds per episode.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sim.gbps", Unit: "Gbps", Better: "higher"},
		{Name: "raw.run_s", Unit: "s", Better: "lower"},
		{Name: "raw.macro_cycle_frac", Unit: "fraction", Better: "higher"},
		{Name: "raw.macro_windows", Unit: "count", Better: "higher"},
	}
	for _, c := range raw.MacroCauses() {
		defs = append(defs, metricDef{Name: "raw.disarm." + c.String(), Unit: "count", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "router.offer_s", Unit: "s", Better: "lower"},
		{Name: "router.drain_s", Unit: "s", Better: "lower"},
		{Name: "router.offered_pkts", Unit: "count", Better: "higher"},
		{Name: "router.delivered_pkts", Unit: "count", Better: "higher"},
		{Name: "traffic.slice_s", Unit: "s", Better: "lower"},
		{Name: "traffic.arrivals", Unit: "count", Better: "higher"},
		{Name: "traffic.next_s", Unit: "s", Better: "lower"},
		{Name: "serve.run_s", Unit: "s", Better: "lower"},
		{Name: "serve.self_s", Unit: "s", Better: "lower"},
		{Name: "serve.slice_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.slice_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "serve.ckpt_slice_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.plain_slice_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.shed_frac", Unit: "fraction", Better: "lower"},
		{Name: "checkpoint.snapshot_s", Unit: "s", Better: "lower"},
		{Name: "checkpoint.snapshot_mb", Unit: "MB", Better: "lower"},
		{Name: "checkpoint.restore_s", Unit: "s", Better: "lower"},
		{Name: "checkpoint.ckpt_mb", Unit: "MB", Better: "lower"},
		{Name: "telemetry.snapshot_s", Unit: "s", Better: "lower"},
		{Name: "telemetry.encode_s", Unit: "s", Better: "lower"},
		{Name: "telemetry.prom_kb", Unit: "kB", Better: "lower"},
		{Name: "cluster.run_s", Unit: "s", Better: "lower"},
		{Name: "cluster.offer_s", Unit: "s", Better: "lower"},
		{Name: "cluster.drain_s", Unit: "s", Better: "lower"},
		{Name: "cluster.conservation_s", Unit: "s", Better: "lower"},
		{Name: "cluster.trunk_words", Unit: "count", Better: "higher"},
		{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "bench.self_s", Unit: "s", Better: "lower"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	}...)
}()

// spanMetrics maps a span name to the per-layer metric that totals it.
var spanMetrics = map[string]string{
	"raw.run":              "raw.run_s",
	"router.offer":         "router.offer_s",
	"router.drain":         "router.drain_s",
	"traffic.slice":        "traffic.slice_s",
	"traffic.next":         "traffic.next_s",
	"serve.run":            "serve.run_s",
	"checkpoint.snapshot":  "checkpoint.snapshot_s",
	"telemetry.snapshot":   "telemetry.snapshot_s",
	"telemetry.encode":     "telemetry.encode_s",
	"cluster.run":          "cluster.run_s",
	"cluster.offer":        "cluster.offer_s",
	"cluster.drain":        "cluster.drain_s",
	"cluster.conservation": "cluster.conservation_s",
}
