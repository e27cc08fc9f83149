// Package cli holds the flag handling shared by the simulator commands
// (rawrouter, rawsim, fabsim, reproduce). Each command registers only
// the flag groups it supports, but every group is parsed and validated
// here once: the fault-schedule assembly, checkpoint read/write, and
// telemetry-export plumbing used to be duplicated per main().
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/raw"
	"repro/internal/telemetry"
)

// Common holds the shared flag values. Zero value is ready; call the
// Register* methods before flag.Parse and the accessors after.
type Common struct {
	// Engine (-engine): chip cycle engine, "fast" (the flag's default) or
	// "ref". Parse with EngineChoice after flag.Parse.
	Engine string
	// CPUProfile / MemProfile (-cpuprofile, -memprofile) are pprof output
	// paths; see StartProfile.
	CPUProfile string
	MemProfile string
	// Faults (-faults) is the fault-schedule text; FaultSeed (-faultseed)
	// adds a seeded schedule of recoverable faults.
	Faults    string
	FaultSeed uint64
	// Trace (-trace) requests a per-tile utilization summary.
	Trace bool
	// Checkpoint / Restore (-checkpoint, -restore) are checkpoint blob
	// paths (write after the run / replay before it).
	Checkpoint string
	Restore    string
	// Metrics (-metrics) selects a telemetry export: "FORMAT[:FILE]"
	// with FORMAT jsonl, csv, or prom; no FILE writes to stdout.
	Metrics string
	// Topology / Chips (-topology, -chips) select an N-chip fabric
	// instead of a single router: "" runs no fabric, otherwise
	// ring|mesh|fattree at -chips chips. Parse with FabricSpec.
	Topology string
	Chips    int
	// Heal (-heal) arms the fabric's fault-healing plane; HealSeed
	// (-healseed) salts its retransmit jitter. Assemble with HealConfig.
	Heal     bool
	HealSeed uint64
}

// RegisterSim installs -engine.
func (c *Common) RegisterSim(fs *flag.FlagSet) {
	fs.StringVar(&c.Engine, "engine", "fast",
		"chip cycle engine: fast (compiled route tables with macro-stepping) or ref (reference interpreter, the test oracle); bit-for-bit identical output")
}

// RegisterProfile installs -cpuprofile and -memprofile.
func (c *Common) RegisterProfile(fs *flag.FlagSet) {
	fs.StringVar(&c.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the run to FILE")
	fs.StringVar(&c.MemProfile, "memprofile", "",
		"write a pprof heap profile to FILE at exit")
}

// EngineChoice parses -engine: "fast" (the flag's default) selects the
// compiled engine, "ref" the reference interpreter.
func (c *Common) EngineChoice() (raw.Engine, error) {
	eng, err := raw.ParseEngine(c.Engine)
	if err != nil {
		return 0, fmt.Errorf("-engine: %w", err)
	}
	return eng, nil
}

// StartProfile starts CPU profiling if -cpuprofile was given and returns
// a stop function to defer in main: it stops the CPU profile and, if
// -memprofile was given, garbage-collects and writes the heap profile.
// Call after flag parsing; errors opening either file are returned
// immediately so main can fail before simulating anything.
func (c *Common) StartProfile() (stop func(), err error) {
	var cpuF *os.File
	if c.CPUProfile != "" {
		cpuF, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	// Open the heap profile's file up front too: a typo should fail the
	// run at startup, not after minutes of simulation.
	var memF *os.File
	if c.MemProfile != "" {
		memF, err = os.Create(c.MemProfile)
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memF != nil {
			runtime.GC() // settle retained heap before the snapshot
			if err := pprof.WriteHeapProfile(memF); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			memF.Close()
		}
	}, nil
}

// RegisterFaults installs -faults and -faultseed.
func (c *Common) RegisterFaults(fs *flag.FlagSet) {
	fs.StringVar(&c.Faults, "faults", "",
		"fault schedule text (see internal/fault), e.g. \"crash@5000:t6;dram@0+9999:+100\"")
	fs.Uint64Var(&c.FaultSeed, "faultseed", 0,
		"add a seeded schedule of recoverable faults (stalls, flaps, freezes, DRAM spikes)")
}

// RegisterTrace installs -trace.
func (c *Common) RegisterTrace(fs *flag.FlagSet) {
	fs.BoolVar(&c.Trace, "trace", false,
		"print a per-tile utilization summary of the last 800 measured cycles")
}

// RegisterCheckpoint installs -checkpoint and -restore.
func (c *Common) RegisterCheckpoint(fs *flag.FlagSet) {
	fs.StringVar(&c.Checkpoint, "checkpoint", "",
		"write a deterministic checkpoint blob to FILE after the run")
	fs.StringVar(&c.Restore, "restore", "",
		"replay a checkpoint blob from FILE before running (needs the writer's fault flags)")
}

// RegisterFabric installs -topology and -chips.
func (c *Common) RegisterFabric(fs *flag.FlagSet) {
	fs.StringVar(&c.Topology, "topology", "",
		"run an N-chip fabric: ring, mesh, or fattree (empty = no fabric run)")
	fs.IntVar(&c.Chips, "chips", 4,
		"fabric chip count for -topology (mesh counts are factored into the squarest grid)")
}

// RegisterHeal installs the -heal flag group (fabric healing plane).
func (c *Common) RegisterHeal(fs *flag.FlagSet) {
	fs.BoolVar(&c.Heal, "heal", false,
		"heal the fabric through chip/trunk loss: adaptive rerouting, trunk ARQ, duplicate suppression")
	fs.Uint64Var(&c.HealSeed, "healseed", 0,
		"seed for the deterministic retransmit jitter")
}

// HealConfig assembles the -heal flag group into a cluster.HealConfig.
func (c *Common) HealConfig() cluster.HealConfig {
	return cluster.HealConfig{Enabled: c.Heal, Seed: c.HealSeed}
}

// FabricSpec parses -topology/-chips into a validated topology spec.
// Returns ok=false with no error when -topology was not given.
func (c *Common) FabricSpec() (spec cluster.Spec, ok bool, err error) {
	if c.Topology == "" {
		return cluster.Spec{}, false, nil
	}
	kind, err := cluster.ParseTopoKind(c.Topology)
	if err != nil {
		return cluster.Spec{}, false, fmt.Errorf("-topology: %w", err)
	}
	spec, err = cluster.SpecFor(kind, c.Chips)
	if err != nil {
		return cluster.Spec{}, false, fmt.Errorf("-chips: %w", err)
	}
	return spec, true, nil
}

// RegisterMetrics installs -metrics.
func (c *Common) RegisterMetrics(fs *flag.FlagSet) {
	fs.StringVar(&c.Metrics, "metrics", "",
		"export a telemetry snapshot after the run: FORMAT[:FILE], FORMAT one of jsonl, csv, prom (no FILE = stdout)")
}

// Validate checks cross-flag invariants after parsing. The fabric
// flags are checked too when registered.
func (c *Common) Validate() error {
	if _, err := c.MetricsSink(); err != nil {
		return err
	}
	if _, err := c.EngineChoice(); err != nil {
		return err
	}
	if _, _, err := c.FabricSpec(); err != nil {
		return err
	}
	if c.Checkpoint != "" && c.Checkpoint == c.Restore {
		return fmt.Errorf("-checkpoint and -restore name the same file %q: the run would overwrite the blob it is restoring from", c.Checkpoint)
	}
	return nil
}

// ValidateFabric checks fabsim's fault and healing flags: -healseed
// tunes only -heal, and the fabric takes its chip and trunk lifecycle
// from -faults alone, so -faultseed has nothing to drive.
func (c *Common) ValidateFabric() error {
	if c.FaultSeed != 0 {
		return fmt.Errorf("-faultseed: fabsim draws no seeded faults; schedule chip and trunk loss with -faults")
	}
	if c.HealSeed != 0 && !c.Heal {
		return fmt.Errorf("-healseed needs -heal")
	}
	return nil
}

// Schedule merges the -faults text with the -faultseed random schedule
// (caller supplies the horizon/limits in opts; opts.Seed is overridden
// by -faultseed). Returns an empty schedule when neither flag is set.
func (c *Common) Schedule(opts fault.RandomOptions) (*fault.Schedule, error) {
	sched := &fault.Schedule{}
	if c.Faults != "" {
		s, err := fault.Parse(c.Faults)
		if err != nil {
			return nil, err
		}
		sched.Events = append(sched.Events, s.Events...)
	}
	if c.FaultSeed != 0 {
		s := fault.Random(c.FaultSeed, opts)
		sched.Events = append(sched.Events, s.Events...)
	}
	return sched, nil
}

// LoadCheckpoint replays -restore's blob through restoreFn. Returns
// false with no error when -restore was not given.
func (c *Common) LoadCheckpoint(restoreFn func([]byte) error) (bool, error) {
	if c.Restore == "" {
		return false, nil
	}
	blob, err := os.ReadFile(c.Restore)
	if err != nil {
		return false, err
	}
	if err := restoreFn(blob); err != nil {
		return false, err
	}
	return true, nil
}

// WriteCheckpoint snapshots via snapFn and writes the blob to
// -checkpoint. Returns 0 with no error when -checkpoint was not given.
func (c *Common) WriteCheckpoint(snapFn func() ([]byte, error)) (int, error) {
	if c.Checkpoint == "" {
		return 0, nil
	}
	blob, err := snapFn()
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(c.Checkpoint, blob, 0o644); err != nil {
		return 0, err
	}
	return len(blob), nil
}

// MetricsSink is a parsed -metrics flag: where and in which format to
// export the post-run telemetry snapshot.
type MetricsSink struct {
	// Format is one of telemetry.Formats().
	Format string
	// Path is the output file; empty writes to stdout.
	Path string
}

// MetricsSink parses -metrics. Returns nil with no error when the flag
// was not given.
func (c *Common) MetricsSink() (*MetricsSink, error) {
	if c.Metrics == "" {
		return nil, nil
	}
	format, path, _ := strings.Cut(c.Metrics, ":")
	ok := false
	for _, f := range telemetry.Formats() {
		if f == format {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("-metrics: unknown format %q (have %s)",
			format, strings.Join(telemetry.Formats(), ", "))
	}
	return &MetricsSink{Format: format, Path: path}, nil
}

// Export renders a router or fabric snapshot in the sink's format and
// writes it to the sink's file (or stdout).
func (s *MetricsSink) Export(snap interface{ Encode(string) ([]byte, error) }) error {
	out, err := snap.Encode(s.Format)
	if err != nil {
		return err
	}
	if s.Path == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(s.Path, out, 0o644)
}
