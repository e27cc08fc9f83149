// Command reproduce regenerates every table and figure of the
// evaluation and prints them in order — the source of record for
// EXPERIMENTS.md and the one way to run an experiment.
//
// Usage:
//
//	reproduce [-quick] [-engine fast|ref] [-exp NAME[,NAME...]]
//	          [-metrics FORMAT[:FILE]] [-workload SPEC] [-recordtrace FILE]
//
// Each section is one row of the sections table. With no -exp every
// section runs, at full quality unless -quick; -exp runs the named
// sections, in table order whatever order it lists them, and an
// unknown name exits 2 with an error that lists every name.
//
// -engine fast (the default) or ref, the reference interpreter, picks
// the chip cycle engine; output is bit-for-bit identical under either.
//
// -workload re-points the heavytail section's cell-fabric comparison at
// an arbitrary workload spec; -recordtrace additionally freezes that
// workload's arrival stream as a TRAF1 trace. -metrics exports the
// telemetry section's snapshot (jsonl, csv or prom) to FILE or stdout,
// so it exits 2 unless telemetry is selected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/stats"
)

// section is one artifact of the evaluation: -exp selects it by name,
// its title heads its output, and run returns its text at quality q.
type section struct {
	name, title string
	run         func(q exp.Quality) (string, error)
}

// sections is the evaluation in print order. heavyTailSpec is the
// workload of the heavytail section's cell-fabric table; a non-nil sink
// receives the telemetry section's snapshot.
func sections(heavyTailSpec string, sink *cli.MetricsSink) []section {
	return []section{
		{"fig7-1-peak", "Figure 7-1 (top): peak throughput", func(q exp.Quality) (string, error) {
			_, _, tb := exp.Figure71(q, false)
			return lines(tb), nil
		}},
		{"fig7-1-avg", "Figure 7-1 (bottom): average throughput", func(q exp.Quality) (string, error) {
			_, _, tb := exp.Figure71(q, true)
			return lines(tb), nil
		}},
		{"headline", "§7.2 headline", func(q exp.Quality) (string, error) {
			mpps, gbps := exp.Headline(q)
			return fmt.Sprintf("%.2f Mpps, %.2f Gbps at 1024B peak (paper: 3.3 Mpps, 26.9 Gbps)\n", mpps, gbps), nil
		}},
		{"fig7-3", "Figure 7-3: per-tile utilization", func(q exp.Quality) (string, error) {
			_, _, render := exp.Figure73(q)
			return lines(render), nil
		}},
		{"table6-1", "§6.1/§6.2 configuration space", table(func(exp.Quality) *stats.Table { return exp.ConfigSpaceTable() })},
		{"ablation", "§5.3 second-network ablation", func(q exp.Quality) (string, error) {
			_, _, tb := exp.SecondNetworkAblation(q)
			return lines(tb), nil
		}},
		{"fairness", "§5.4 fairness", func(q exp.Quality) (string, error) {
			_, tb := exp.Fairness(q)
			return lines(tb), nil
		}},
		{"hol-voq", "§2.2.2 HOL vs VOQ", func(q exp.Quality) (string, error) {
			_, _, _, tb := exp.HOLvsVOQ(q)
			return lines(tb), nil
		}},
		{"cells", "§2.2.2 cells vs variable length", func(q exp.Quality) (string, error) {
			_, _, tb := exp.CellsVsVariable(q)
			return lines(tb), nil
		}},
		{"qos", "§8.7 QoS", func(q exp.Quality) (string, error) {
			_, tb := exp.QoS(q)
			return lines(tb), nil
		}},
		{"multicast", "§8.6 multicast", func(q exp.Quality) (string, error) {
			_, _, tb := exp.Multicast(q)
			return lines(tb), nil
		}},
		{"scale", "§8.5 scaling", table(exp.Scale8)},
		{"lookup", "§8.2 lookup structures", table(func(exp.Quality) *stats.Table { return exp.LookupCost(5000) })},
		{"mcast-cells", "§2.2.2 multicast cells", func(q exp.Quality) (string, error) {
			_, _, _, tb := exp.McastCells(q)
			return lines(tb), nil
		}},
		{"delay-load", "latency vs offered load", table(exp.DelayVsLoad)},
		{"two-chip", "§8.5 two-chip composition (cycle level)", table(exp.ClusterScaling)},
		{"scaleout", "§8.5 scale-out fabrics (cycle level)", table(exp.ScaleOut)},
		{"mcast-cycle", "§8.6 multicast at cycle level", func(q exp.Quality) (string, error) {
			_, tb := exp.McastCycle(q)
			return lines(tb), nil
		}},
		{"islip-iters", "§2.2.2 iSLIP iterations", table(exp.ISLIPIterations)},
		{"full-util", "§8.1 full utilization (VOQ ingress)", func(q exp.Quality) (string, error) {
			_, _, tb := exp.FullUtilization(q)
			return lines(tb), nil
		}},
		{"pim-islip", "PIM vs iSLIP", table(exp.PIMvsISLIP)},
		{"cycle-latency", "cycle-level unloaded latency", table(exp.CycleLatency)},
		{"quantum", "quantum-size ablation", table(exp.QuantumAblation)},
		{"convergence", "control-plane convergence", table(func(exp.Quality) *stats.Table { return exp.NetprocConvergence() })},
		{"degraded", "robustness: degraded crossbar (3 live ports vs 4)", func(q exp.Quality) (string, error) {
			_, _, tb := exp.DegradedCrossbar(q)
			return lines(tb), nil
		}},
		{"restore", "robustness: port re-admission (degrade -> restore vs never-failed)", func(q exp.Quality) (string, error) {
			_, _, tb := exp.RestoredCrossbar(q)
			return lines(tb), nil
		}},
		{"telemetry", "telemetry plane: per-quantum metrics", func(q exp.Quality) (string, error) {
			snap, tb := exp.Telemetry(q)
			switch {
			case sink == nil:
				return lines(tb), nil
			case sink.Path == "":
				out, err := snap.Encode(sink.Format)
				return lines(tb) + string(out), err
			}
			err := sink.Export(&snap)
			return lines(tb, fmt.Sprintf("telemetry: %s snapshot -> %s (quanta %d)",
				sink.Format, sink.Path, snap.Quanta)), err
		}},
		{"heavytail", "traffic plane: heavy-tailed production workloads", func(q exp.Quality) (string, error) {
			ftb, err := exp.HeavyTailFabric(q, heavyTailSpec) // first: a bad -workload fails fast
			if err != nil {
				return "", err
			}
			_, tb := exp.HeavyTail(q)
			return lines(tb, ftb), nil
		}},
	}
}

// table adapts an experiment that returns one table to a section.
func table(f func(exp.Quality) *stats.Table) func(exp.Quality) (string, error) {
	return func(q exp.Quality) (string, error) { return lines(f(q)), nil }
}

// lines renders vs the way fmt.Println prints each of them.
func lines(vs ...any) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintln(&b, v)
	}
	return b.String()
}

// names lists the sections' names in table order.
func names(secs []section) []string {
	var out []string
	for _, s := range secs {
		out = append(out, s.name)
	}
	return out
}

// pick returns the sections that list names, in table order; an empty
// list picks every section.
func pick(secs []section, list string) ([]section, error) {
	if list == "" {
		return secs, nil
	}
	all, want := names(secs), strings.Split(list, ",")
	for _, name := range want {
		if !slices.Contains(all, name) {
			return nil, fmt.Errorf("-exp: unknown section %q; choose from %s",
				name, strings.Join(all, ", "))
		}
	}
	var rows []section
	for _, s := range secs {
		if slices.Contains(want, s.name) {
			rows = append(rows, s)
		}
	}
	return rows, nil
}

// main delegates to run so deferred cleanups (profile flush) execute
// before the process exits — os.Exit in main would skip them.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected sections and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	quick := fs.Bool("quick", false, "run the short experiment durations")
	only := fs.String("exp", "", "comma-separated sections to run, in table order (default all): "+
		strings.Join(names(sections("", nil)), ", "))
	var common cli.Common
	var wflags cli.WorkloadFlags
	common.RegisterSim(fs)
	common.RegisterMetrics(fs)
	common.RegisterProfile(fs)
	wflags.RegisterWorkload(fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "reproduce:", err)
		return status
	}
	if err := common.Validate(); err != nil {
		return fail(2, err)
	}
	heavyTailSpec := "flows:alpha=1.3,zipf=1.1"
	if wflags.Given() {
		heavyTailSpec = wflags.Workload
	}
	sink, _ := common.MetricsSink() // validated above
	rows, err := pick(sections(heavyTailSpec, sink), *only)
	if err != nil {
		return fail(2, err)
	}
	if sink != nil && !slices.Contains(names(rows), "telemetry") {
		return fail(2, errors.New("-metrics exports the telemetry section's snapshot, and -exp does not select telemetry"))
	}
	if wl, given, err := wflags.Build(); err != nil {
		return fail(2, err)
	} else if given {
		if n, wrote, err := wflags.MaybeRecord(wl, 4096); err != nil {
			return fail(2, err)
		} else if wrote {
			fmt.Fprintf(stdout, "workload: recorded %d arrivals -> %s\n", n, wflags.RecordTrace)
		}
	}
	stopProf, err := common.StartProfile()
	if err != nil {
		return fail(2, err)
	}
	defer stopProf()
	q := exp.Full
	if *quick {
		q = exp.Quick
	}
	engine, _ := common.EngineChoice() // validated above
	exp.SetEngine(engine)

	for _, s := range rows {
		start := time.Now()
		fmt.Fprintf(stdout, "==== %s ====\n", s.title)
		text, err := s.run(q)
		fmt.Fprint(stdout, text)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	return 0
}
