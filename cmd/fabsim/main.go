// Command fabsim runs one N-chip cycle-level fabric of Rotating
// Crossbar routers. The experiment suite — the Chapter 2 baselines and
// the Chapter 8 extension studies — runs from reproduce
// (`reproduce -quick -exp NAME`), so fabsim without -topology exits 2.
//
// Usage:
//
//	fabsim -topology ring|mesh|fattree [-chips N] [-full] [-engine fast|ref]
//	       [-workload SPEC] [-recordtrace FILE] [-faults SCHED]
//	       [-heal [-healseed N]]
//	       [-metrics FORMAT[:FILE]]
//
// -chips sizes the fabric (a 16-chip mesh is the 4x4 grid) and -workload
// drives its external ports, one closed-loop source each (a spec's ports
// default to the fabric's externals; any other explicit count is
// rejected). Without -workload every external e sends 1,024 B packets to
// external (e + E/2) mod E, the antipodal permutation the repo
// benchmark's fabric-mesh16 workload measures. -full runs 600 rounds
// instead of 150.
//
// -engine fast (the default) or ref, the reference interpreter, picks
// the chip cycle engine; output is bit-for-bit identical under either.
//
// -faults may schedule whole-chip kills and re-admissions
// (killchip@CYCLE:cK / restorechip@CYCLE:cK) and trunk loss
// (killtrunk@CYCLE:cA-cB / restoretrunk@CYCLE:cA-cB), and -metrics
// exports the fabric-plane telemetry snapshot (per-trunk conservation
// counters, bisection utilization, lifecycle events). -heal arms the
// fault-healing plane — adaptive rerouting around dead chips/trunks,
// trunk-level ARQ retransmission, end-to-end duplicate suppression —
// with -healseed salting the ARQ's retransmit jitter; the run then also
// prints the healing summary. Every run audits trunk conservation and
// the end-to-end delivery ledger. -healseed needs -heal, and -faultseed
// is rejected: the fabric's faults are its hand-written lifecycle
// schedule. Example:
//
//	fabsim -topology mesh -chips 16 -heal \
//	       -faults 'killchip@20000:c5;killtrunk@30000:c1-c2;restorechip@60000:c5' -metrics prom
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// main delegates to run so deferred cleanups (profile flush) execute
// before the process exits — os.Exit in main would skip them.
func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	full := fs.Bool("full", false, "run 600 rounds instead of 150")
	var common cli.Common
	var wflags cli.WorkloadFlags
	wflags.RegisterWorkload(fs)
	common.RegisterSim(fs)
	common.RegisterMetrics(fs)
	common.RegisterProfile(fs)
	common.RegisterFabric(fs)
	common.RegisterFaults(fs)
	common.RegisterHeal(fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	spec, fabric, _ := common.FabricSpec() // err caught by Validate
	if !fabric {
		fmt.Fprintln(os.Stderr, "fabsim: -topology is required; the experiment suite runs from reproduce -exp NAME")
		return 2
	}
	if err := common.ValidateFabric(); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	wl, err := wflags.BuildFor(spec.Externals(), cli.FabricDefault(spec.Externals()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	if n, wrote, err := wflags.MaybeRecord(wl, 4096); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 1
	} else if wrote {
		fmt.Printf("workload: recorded %d arrivals -> %s\n", n, wflags.RecordTrace)
	}
	stopProf, err := common.StartProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	defer stopProf()
	engine, _ := common.EngineChoice() // validated above
	rounds := 150
	if *full {
		rounds = 600
	}
	if err := runFabric(spec, wl, &common, engine, rounds); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 1
	}
	return 0
}

// runFabric drives one N-chip fabric closed-loop from wl's sources, one
// per external port, through exp.RunFabric (which audits trunk
// conservation and the end-to-end delivery ledger), applying any
// chip/trunk lifecycle controls from -faults, and prints the fabric
// summary. -heal arms the healing plane. -metrics exports the
// fabric-plane telemetry snapshot.
func runFabric(spec cluster.Spec, wl *traffic.Workload, common *cli.Common, engine raw.Engine, rounds int) error {
	cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig(), Heal: common.HealConfig()}
	cfg.Router.Engine = engine
	if cfg.Heal.Enabled {
		if risk := spec.PartitionRisk(); risk != "" {
			fmt.Fprintf(os.Stderr, "fabsim: warning: %s\n", risk)
		}
	}
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		return err
	}
	if common.Faults != "" {
		sched, err := fault.Parse(common.Faults)
		if err != nil {
			return err
		}
		f.ApplySchedule(sched)
	}
	srcs, err := wl.Sources()
	if err != nil {
		return err
	}
	if err := exp.RunFabric(f, srcs, rounds); err != nil {
		return err
	}
	snap := f.TelemetrySnapshot()
	tb := &stats.Table{
		Caption: fmt.Sprintf("%s fabric: %d chips, %d externals, %d trunks, cycle %d, workload=%s",
			spec, spec.NumChips(), len(srcs), len(snap.Trunks), f.Cycle(), wl.Spec),
		Headers: []string{"metric", "value"},
	}
	tb.AddRow("external Gbps", stats.Gbps(f.ExternalWordsOut()*4, f.Cycle(), cfg.Router.ClockHz))
	tb.AddRow("packets delivered", f.ExternalPktsOut())
	tb.AddRow("bisection utilization", snap.BisectionUtilization)
	tb.AddRow("dead chips", len(snap.DeadChips))
	tb.AddRow("dead trunks", len(snap.DeadTrunks))
	tb.AddRow("lifecycle events", len(snap.Events))
	if h := snap.Heal; h != nil {
		tb.AddRow("heal epochs", h.Epochs)
		tb.AddRow("tables rerouted", h.Reroutes)
		tb.AddRow("frames retransmitted", h.RetransFrames)
		tb.AddRow("duplicate words suppressed", h.DupWords)
		var dropped int64
		for _, d := range h.Dropped {
			dropped += d.Words
		}
		tb.AddRow("words dropped (counted)", dropped)
		for _, d := range h.Dropped {
			if d.Words > 0 {
				tb.AddRow("  dropped: "+d.Cause, d.Words)
			}
		}
	}
	fmt.Println(tb)
	sink, _ := common.MetricsSink()
	if sink != nil {
		if err := sink.Export(&snap); err != nil {
			return err
		}
		if sink.Path != "" {
			fmt.Printf("telemetry: %s fabric snapshot -> %s\n", sink.Format, sink.Path)
		}
	}
	return nil
}
