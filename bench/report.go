package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/raw"
)

// runOpts are one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	scale   int64
	engine  raw.Engine
	dir     string
	// setups is how many constructions setup_s takes the median of.
	setups int
}

// episodeRec is one episode's output and measurements.
type episodeRec struct {
	out     outcome
	segs    []segment
	segName string
	tr      *tracer // nil unless the run is traced
	gs      goStats
}

// report is everything one invocation measured.
type report struct {
	w     *workload
	host  hostInfo
	trace bool

	// setupS and rawSetupS are each construction's time, calibrated and as
	// measured.
	setupS, rawSetupS []float64
	eps               []episodeRec
	// rssMB is the RSS the first episode retained at the end of its timed
	// phase, before its checks and any other construction.
	rssMB float64
	// err is the first failed correctness check; it fails every op.
	err error
}

// runWorkload runs episodes of w until the next would overrun the
// budget, and at least one. With tracing, every episode records spans in
// its odd segments. The constructions beyond the episodes' own, for
// setup_s, follow the first episode so they stay out of its memory.
func runWorkload(w *workload, o runOpts) *report {
	rep := &report{w: w, host: newHostInfo(o.seed, w), trace: o.trace}
	p := w.params(o.seed, o.engine, o.scale, o.dir)
	start := time.Now()
	for ep := 0; ; ep++ {
		t0 := time.Now()
		m := &meter{}
		if o.trace {
			m.tr = newTracer()
		}
		id := m.tr.begin("bench.setup")
		inst, err := rep.setup(p)
		m.tr.end(id)
		if err != nil {
			rep.err = err
			return rep
		}
		out, err := inst.run(m)
		if err == nil && len(rep.eps) > 0 && out.digest != rep.eps[0].out.digest {
			err = fmt.Errorf("episode %d digest %016x differs from episode 1's %016x", ep+1, out.digest, rep.eps[0].out.digest)
		}
		if err == nil && o.scale == 1 && o.seed == 1 {
			err = checkGolden(w.name, out.digest)
		}
		rep.eps = append(rep.eps, episodeRec{out: out, segs: m.segs, segName: m.segName, tr: m.tr, gs: m.memDelta})
		if err != nil {
			rep.err = err
			return rep
		}
		if ep == 0 {
			rep.rssMB = m.rssMB
			for len(rep.setupS) < o.setups {
				if _, err := rep.setup(p); err != nil {
					rep.err = err
					return rep
				}
			}
		}
		if time.Since(start)+time.Since(t0) > o.seconds {
			return rep
		}
	}
}

// setup constructs one instance and records its calibrated time. It
// starts from a collected heap, so a collection of the previous episode's
// garbage does not land in the timing.
func (rep *report) setup(p params) (episodeRunner, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := rep.w.build(p)
	s := time.Since(t0).Seconds()
	cal, _ := calibrate()
	rep.rawSetupS = append(rep.rawSetupS, s)
	rep.setupS = append(rep.setupS, s*nominalCalibNs/cal)
	return inst, err
}

// checkGolden compares a seed-1 digest with the recorded one.
func checkGolden(name string, d uint64) error {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[name]
	if !ok {
		return errors.New("golden.json has no digest for this workload")
	}
	if got := fmt.Sprintf("%016x", d); got != want {
		return fmt.Errorf("seed-1 digest %s, golden.json records %s", got, want)
	}
	return nil
}

// perCycle applies f to every traced or every untraced segment.
func (rep *report) perCycle(traced bool, f func(segment) float64) []float64 {
	var out []float64
	for _, e := range rep.eps {
		for _, s := range e.segs {
			if s.traced == traced {
				out = append(out, f(s))
			}
		}
	}
	return out
}

// simGbps is the first episode's delivered throughput over its timed
// cycles; every episode simulates the same thing.
func (rep *report) simGbps() float64 {
	if len(rep.eps) == 0 || rep.eps[0].out.cycles == 0 {
		return 0
	}
	o := rep.eps[0].out
	return float64(o.words*32) / (float64(o.cycles) / clockHz) / 1e9
}

// endToEnd returns the end-to-end metrics over the untraced segments.
func (rep *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"host_ns_per_cycle":     median(rep.perCycle(false, segment.wallPerCycle)),
		"host_cpu_ns_per_cycle": median(rep.perCycle(false, segment.cpuPerCycle)),
		"setup_s":               median(rep.setupS),
		"rss_mb":                rep.rssMB,
	}
}

// perLayer returns the per-layer metrics, averaged over episodes. Span
// times inside segments come from the traced half and are scaled to the
// whole episode; spans outside segments (Daemon.Run, the snapshot) are
// taken whole.
func (rep *report) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	n := float64(len(rep.eps))
	for _, e := range rep.eps {
		for name, v := range e.out.vals {
			out[name] += v / n
		}
		if e.tr == nil {
			continue
		}
		sum := e.tr.summarize(e.segName)
		traced := 0
		for _, s := range e.segs {
			if s.traced {
				traced++
			}
		}
		scale := float64(len(e.segs)) / float64(max(traced, 1))
		all := e.tr.totals()
		for span, metric := range spanMetrics {
			if v, ok := sum.inclusive[span]; ok {
				out[metric] += v * scale / n
			} else {
				out[metric] += all[span] / n
			}
		}
		out["serve.self_s"] += sum.self["serve"] * scale / n
		out["bench.self_s"] += sum.self["bench"] * scale / n
		out["go.alloc_mb"] += e.gs.allocMB / n
		out["go.gc_cycles"] += e.gs.gcCycles / n
		out["go.gc_pause_ms"] += e.gs.gcPauseMs / n
		out["go.peak_rss_mb"] += e.gs.peakRSSMB / n
	}
	out["sim.gbps"] = rep.simGbps()
	if untraced := median(rep.perCycle(false, segment.wallPerCycle)); untraced > 0 && rep.trace {
		out["trace.overhead_pct"] = (median(rep.perCycle(true, segment.wallPerCycle))/untraced - 1) * 100
	}
	return out
}

// resultLine is the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) ops() (attempted, failed int64) {
	for _, e := range rep.eps {
		attempted += e.out.ops
		failed += e.out.failed
	}
	return attempted, failed
}

func (rep *report) result() resultLine {
	res := resultLine{Correct: rep.err == nil, Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = rep.ops()
	if !res.Correct {
		// A construction that fails before any packet is offered counts as
		// the one failed op.
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
	}
	defs, vals := endToEnd, rep.endToEnd()
	if rep.trace {
		defs, vals = perLayer, rep.perLayer()
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// print writes the human-readable report that precedes the result line.
func (rep *report) print(out io.Writer) {
	w := rep.w
	host, _ := json.Marshal(rep.host)
	fmt.Fprintf(out, "# host %s\n", host)
	fmt.Fprintf(out, "# %s: %d episodes of %d x %d timed cycles after %d warm-up; %d setups\n",
		w.name, len(rep.eps), segments, rep.host.Cycles["segment"], rep.host.Cycles["warmup"], len(rep.setupS))
	if cal := rep.perCycle(false, segment.wallPerCycle); len(cal) > 0 {
		e2e := rep.endToEnd()
		for _, d := range endToEnd {
			fmt.Fprintf(out, "%-24s %12.4f %s\n", d.Name, e2e[d.Name], d.Unit)
		}
		raw := rep.perCycle(false, segment.rawPerCycle)
		fmt.Fprintf(out, "  host_ns_per_cycle over %d segments: calibrated p25 %.1f p75 %.1f; as measured median %.1f p25 %.1f p75 %.1f\n",
			len(cal), quantile(cal, 0.25), quantile(cal, 0.75), median(raw), quantile(raw, 0.25), quantile(raw, 0.75))
		fmt.Fprintf(out, "  setup_s as measured: median %.4f s\n", median(rep.rawSetupS))
	}
	g := rep.simGbps()
	if w.paperGbps > 0 {
		fmt.Fprintf(out, "sim.gbps %.4f (paper %.1f, %+.1f%%)\n", g, w.paperGbps, (g/w.paperGbps-1)*100)
	} else {
		fmt.Fprintf(out, "sim.gbps %.4f\n", g)
	}
	ops, failed := rep.ops()
	fmt.Fprintf(out, "ops %d failed_ops %d over %d episodes\n", ops, failed, len(rep.eps))
	if len(rep.eps) > 0 {
		o := rep.eps[0].out
		for _, k := range sortedKeys(o.vals) {
			fmt.Fprintf(out, "  %-28s %s\n", k, strconv.FormatFloat(o.vals[k], 'g', 6, 64))
		}
		fmt.Fprintf(out, "digest %016x\n", o.digest)
	}
	for i, e := range rep.eps {
		if e.tr == nil {
			continue
		}
		sum := e.tr.summarize(e.segName)
		var total float64
		for _, layer := range sortedKeys(sum.self) {
			total += sum.self[layer]
			fmt.Fprintf(out, "  episode %d layer %-10s self %8.4f s  %5.1f%% of traced wall\n", i+1, layer, sum.self[layer], sum.self[layer]/sum.wall*100)
		}
		fmt.Fprintf(out, "  episode %d: layer self times sum to %.4f s of %.4f s traced wall\n", i+1, total, sum.wall)
	}
	if rep.trace {
		fmt.Fprintf(out, "trace.overhead_pct %.2f\n", rep.perLayer()["trace.overhead_pct"])
	}
	if rep.err != nil {
		fmt.Fprintf(out, "INCORRECT: %v\n", rep.err)
	}
}
