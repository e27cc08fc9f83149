// Command bench is the repository's benchmark: four workloads on the fast
// cycle engine, end-to-end host metrics from untraced runs and per-layer
// metrics from traced ones. See README.md.
//
//	bash bench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// Without -workload every workload runs, each in its own process.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/raw"
)

// clockHz is the simulated chip clock sim.gbps is computed at.
const clockHz = 250e6

// setupRepeats is how many constructions setup_s takes the median of.
const setupRepeats = 11

// goldenJSON maps each workload to its seed-1 digest, recorded from a
// reference-engine run (go test -run TestRecordGolden -record).
//
//go:embed golden.json
var goldenJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "wall-time budget: episodes repeat while the next one fits")
	traceFlag := fs.Int("trace", 0, "1 records spans in every other segment and reports per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write every episode's spans as JSON to FILE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds >= 1 and no arguments")
		return 2
	}
	if *name == "" {
		if *spansPath != "" {
			fmt.Fprintln(stderr, "bench: -spans needs -workload")
			return 2
		}
		return runAll(args, stdout, stderr)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep := runWorkload(w, runOpts{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		scale: 1, engine: raw.EngineFast, dir: dir, setups: setupRepeats,
	})
	rep.print(stdout)
	if rep.trace && *spansPath != "" {
		if err := rep.writeSpans(*spansPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.err != nil {
		fmt.Fprintln(stderr, "bench:", w.name+":", rep.err)
		return 1
	}
	return 0
}

// scratchDir makes a directory for checkpoint files under the working
// directory's .bench_build, which the benchmark removes when it exits.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	return dir, nil
}

// runAll runs every workload in a fresh process of this binary, one at a
// time, so each reports its own peak RSS and starts with a clean heap.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
