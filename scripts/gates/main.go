// Command gates runs the repository's performance gates and records
// them in BENCH_gates.json at the repository root:
//
//	go run ./scripts/gates
//
// Every gate pairs two legs from the root package's bench_*_test.go
// files. In each of five rounds the two legs run back to back, 1 s
// each, in table order, so both see near-identical host load. A gate
// scores the minimum over rounds of its paired ratio: a load burst
// moves the ratio of the round it hits, while a real cost moves every
// round's ratio and cannot hide. The record-only legs run three times
// each and are not gated.
//
// The runner takes no flag and reads no environment variable. It builds
// its test binaries (one from a throwaway git worktree of a pinned
// commit) in a temporary directory it removes on exit, and exits
// non-zero when a gate fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	rounds      = 5    // paired rounds per gate
	recordCount = 3    // runs of each record-only leg
	benchtime   = "1s" // per leg per round
	recordFile  = "BENCH_gates.json"
	// preTelemetry is the last commit before the telemetry hooks entered
	// the router hot path.
	preTelemetry = "c29afd5"
)

// leg is one benchmark of the root package.
type leg struct {
	bench  string // full sub-benchmark name; run as the pattern bench+"$"
	commit string // "" for the working tree, or preTelemetry
}

// kind says how a gate turns a round's paired ns/op into its value.
type kind int

const (
	// speedup is legs[0]/legs[1] (reference over fast), gated as a floor.
	speedup kind = iota
	// overhead is legs[1]/legs[0]-1 in percent (variant over baseline),
	// gated as a ceiling.
	overhead
	// share is legs[0]/legs[1] in percent (part over whole), gated as a
	// ceiling.
	share
)

// gate is one row of the table.
type gate struct {
	name string
	legs [2]leg // run back to back in every round, in this order
	kind kind
	bar  float64
	// positive names a custom metric legs[1] must report above zero in
	// every round ("" for none).
	positive string
}

var gates = []gate{
	// The fast engine must run 1,024-byte packets streaming through
	// SwJump self-loop switch programs, the macro-step steady state, at
	// least 2x faster than the reference interpreter. Both engines
	// produce bit-for-bit identical simulations (the equivalence suites
	// in internal/raw, internal/fault and internal/router), so the ratio
	// is pure host speed.
	{name: "engine-stream", kind: speedup, bar: 2, legs: [2]leg{
		{bench: "BenchmarkEngine/stream1024B/engine=ref"},
		{bench: "BenchmarkEngine/stream1024B/engine=fast"}}},
	// The full router under saturated 1,024-byte permutation traffic
	// must run at least 5x faster on the fast engine. That speedup rests
	// on macro windows engaging: firmware blocked on the static network
	// is admitted and the router's step hook declares its due cycles,
	// so windows cover the gaps between quantum and mask boundaries. A
	// fast leg with no macro cycles would be a silent fallback to
	// per-cycle stepping, not a host-load blip, so it fails the gate.
	{name: "engine-router", kind: speedup, bar: 5, positive: "macro-cycles/op", legs: [2]leg{
		{bench: "BenchmarkEngine/router1024B/engine=ref"},
		{bench: "BenchmarkEngine/router1024B/engine=fast"}}},
	// Arming -heal on a healthy ring-4 fabric must cost <1% against the
	// same fabric with healing disabled: fault tolerance is free until a
	// fault fires. The armed-but-idle path adds per-packet flow stamping
	// at ingress, the egress duplicate filter and one empty-queue check
	// per 64-cycle slice; rerouting, ARQ custody and table swaps run only
	// after a fault. The end-to-end word ledger is kept with healing on
	// or off, so it belongs to the off leg, not the gated delta.
	{name: "heal-idle", kind: overhead, bar: 1, legs: [2]leg{
		{bench: "BenchmarkHealOverhead/off"},
		{bench: "BenchmarkHealOverhead/idle"}}},
	// With cfg.Metrics == nil the telemetry hooks (one nil check per
	// cycle in the control hook, one per quantum in the crossbar
	// firmware) must cost <1% against the last commit before they
	// existed. No binary has both sides, so the baseline leg is built
	// from that commit and runs its same-bodied benchmark.
	{name: "telemetry-off", kind: overhead, bar: 1, legs: [2]leg{
		{bench: "BenchmarkSimulatorCyclesPerSecond/workers=1", commit: preTelemetry},
		{bench: "BenchmarkTelemetryOverhead/off"}}},
	// Generating one 1,024-cycle slice of open-loop arrivals (heavy-
	// tailed flows, Zipf destinations, IMIX sizes) must cost <1% of the
	// reference engine stepping the same cycles: the arrival front-end
	// may not meaningfully slow the simulation it feeds.
	{name: "traffic-gen", kind: share, bar: 1, legs: [2]leg{
		{bench: "BenchmarkTrafficPlane/gen"},
		{bench: "BenchmarkTrafficPlane/step"}}},
}

var records = []leg{
	// Arming the telemetry collector is opt-in (Config.Metrics, the
	// -metrics flag), and export runs after the simulation, never on its
	// hot path.
	{bench: "BenchmarkTelemetryOverhead/on"},
	{bench: "BenchmarkTelemetryOverhead/export"},
	// Every chip fault hook is guarded by a nil raw.FaultPlane check;
	// their <1% bar against the pre-hook commit was checked when the
	// hooks landed.
	{bench: "BenchmarkFaultHookOverhead/none"},
	{bench: "BenchmarkFaultHookOverhead/empty-schedule"},
	{bench: "BenchmarkFaultHookOverhead/active"},
	// The watchdog's healthy path reads four quantum counters every
	// 1,024 cycles; its <1% bar against watchdog-off was checked when
	// the watchdog landed.
	{bench: "BenchmarkWatchdogOverhead/off"},
	{bench: "BenchmarkWatchdogOverhead/watchdog"},
	{bench: "BenchmarkWatchdogOverhead/recovery"},
}

// result is one benchmark result line.
type result struct {
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseLine parses a go test -bench result line:
//
//	BenchmarkName-N   iterations   v1 unit1   v2 unit2 ...
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return result{}, false
	}
	r := result{Metrics: map[string]float64{}}
	hasNs := false
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		if f[i+1] == "ns/op" {
			r.NsPerOp, hasNs = v, true
		} else {
			r.Metrics[f[i+1]] = v
		}
	}
	return r, hasNs
}

// verdict is a scored gate.
type verdict struct {
	Gate     string    `json:"gate"`
	Compares string    `json:"compares"`
	PerRound []float64 `json:"per_round"`
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Bar      float64   `json:"bar"`
	Pass     bool      `json:"pass"`
	Reason   string    `json:"reason,omitempty"` // why a failing gate failed
}

// score rates the gate on its legs' paired rounds.
func (g gate) score(first, second []result) verdict {
	v := verdict{Gate: g.name, Bar: g.bar, PerRound: make([]float64, min(len(first), len(second)))}
	a, b := g.legs[0].bench, g.legs[1].bench
	for i := range v.PerRound {
		x, y := first[i].NsPerOp, second[i].NsPerOp
		switch g.kind {
		case speedup:
			v.PerRound[i] = x / y
		case overhead:
			v.PerRound[i] = (y/x - 1) * 100
		case share:
			v.PerRound[i] = x / y * 100
		}
	}
	v.Value = slices.Min(v.PerRound)
	switch g.kind {
	case speedup:
		v.Unit, v.Compares = "x", fmt.Sprintf("min over rounds of %s / %s, at least bar", a, b)
		v.Pass = v.Value >= g.bar
	case overhead:
		v.Unit, v.Compares = "%", fmt.Sprintf("min over rounds of %s / %s - 1, at most bar", b, a)
		v.Pass = v.Value <= g.bar
	case share:
		v.Unit, v.Compares = "%", fmt.Sprintf("min over rounds of %s / %s, at most bar", a, b)
		v.Pass = v.Value <= g.bar
	}
	if !v.Pass {
		v.Reason = fmt.Sprintf("%.2f%s is past the bar", v.Value, v.Unit)
	}
	for i := range v.PerRound {
		if m := second[i].Metrics[g.positive]; g.positive != "" && m <= 0 {
			v.Pass, v.Reason = false, fmt.Sprintf("%s reported %g %s in round %d", b, m, g.positive, i+1)
		}
		v.PerRound[i] = round2(v.PerRound[i])
	}
	v.Value = round2(v.Value)
	return v
}

// round2 rounds to two decimals the way printf's %.2f does.
func round2(x float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 2, 64), 64)
	return r
}

type record struct {
	Command string      `json:"command"`
	Date    string      `json:"date"`
	Host    host        `json:"host"`
	Method  string      `json:"method"`
	Legs    []legRecord `json:"-"` // written by encode, one per line
	Gates   []verdict   `json:"-"` // written by encode, one per line
}

type host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	NumCPU int    `json:"num_cpu"`
	Go     string `json:"go"`
}

type legRecord struct {
	Bench  string   `json:"bench"`
	Commit string   `json:"commit,omitempty"`
	Runs   []result `json:"runs"`
}

// encode renders rec as one JSON object with each leg and each gate on a
// line of its own, so the record stays short and a rerun diffs line by
// line against the last one.
func encode(rec record) ([]byte, error) {
	head, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(bytes.TrimSuffix(head, []byte("\n}")))
	if err := list(b, "legs", rec.Legs); err != nil {
		return nil, err
	}
	if err := list(b, "gates", rec.Gates); err != nil {
		return nil, err
	}
	b.WriteString("\n}\n")
	return b.Bytes(), nil
}

// list appends the member `"key": [...]` to the open object in b, one
// compact element per line.
func list[T any](b *bytes.Buffer, key string, items []T) error {
	fmt.Fprintf(b, ",\n  %q: [", key)
	for i, item := range items {
		line, err := json.Marshal(item)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "\n    %s", line)
	}
	b.WriteString("\n  ]")
	return nil
}

func main() {
	failed, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gates:", err)
	}
	if err != nil || failed > 0 {
		os.Exit(1)
	}
}

// run measures the gates, writes the record and returns how many gates
// failed.
func run() (int, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := command(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return 0, err
	}
	rec, err := measure(ctx, root)
	if err != nil {
		return 0, err
	}
	buf, err := encode(rec)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(root, recordFile), buf, 0o644); err != nil {
		return 0, err
	}
	failed := 0
	for _, v := range rec.Gates {
		verdict := "PASS"
		if !v.Pass {
			verdict, failed = "FAIL: "+v.Reason, failed+1
		}
		fmt.Printf("%-14s %8.2f%-2s bar %g%-2s %s\n", v.Gate, v.Value, v.Unit, v.Bar, v.Unit, verdict)
	}
	fmt.Printf("gates: %d of %d failed (%s written)\n", failed, len(rec.Gates), recordFile)
	return failed, nil
}

// measure builds the test binaries, runs every gate's rounds and the
// record-only legs, and scores the gates.
func measure(ctx context.Context, root string) (record, error) {
	rec := record{
		Command: "go run ./scripts/gates",
		Date:    time.Now().UTC().Format("2006-01-02"),
		Host: host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
			NumCPU: runtime.NumCPU(), Go: runtime.Version()},
		Method: fmt.Sprintf("each gate: %d rounds, its two legs back to back for %s each; "+
			"value = min over rounds of the paired ratio. Record-only legs: %d runs of %s.",
			rounds, benchtime, recordCount, benchtime),
	}
	fmt.Println("gates: building the test binaries")
	tmp, err := os.MkdirTemp("", "gates")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)
	bins := map[string]string{"": filepath.Join(tmp, "cur.test")}
	if _, err := command(ctx, root, "go", "test", "-c", "-o", bins[""], "."); err != nil {
		return rec, err
	}
	tree := filepath.Join(tmp, "pre")
	if _, err := command(ctx, root, "git", "worktree", "add", "--detach", tree, preTelemetry); err != nil {
		return rec, err
	}
	defer func() {
		// Not ctx: the worktree must go even after an interrupt.
		if _, err := command(context.Background(), root, "git", "worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintln(os.Stderr, "gates:", err)
		}
	}()
	bins[preTelemetry] = filepath.Join(tmp, "pre.test")
	if _, err := command(ctx, tree, "go", "test", "-c", "-o", bins[preTelemetry], "."); err != nil {
		return rec, err
	}

	for _, g := range gates {
		var paired [2][]result
		for r := 0; r < rounds; r++ {
			for i, l := range g.legs {
				rs, err := bench(ctx, root, bins[l.commit], l.bench, 1)
				if err != nil {
					return rec, err
				}
				paired[i] = append(paired[i], rs...)
			}
		}
		rec.Gates = append(rec.Gates, g.score(paired[0], paired[1]))
		for i, l := range g.legs {
			rec.Legs = append(rec.Legs, legRecord{l.bench, l.commit, paired[i]})
		}
	}
	for _, l := range records {
		rs, err := bench(ctx, root, bins[l.commit], l.bench, recordCount)
		if err != nil {
			return rec, err
		}
		rec.Legs = append(rec.Legs, legRecord{l.bench, l.commit, rs})
	}
	return rec, nil
}

// bench runs one benchmark count times from the repository root and
// returns its results, echoing the result lines.
func bench(ctx context.Context, root, bin, name string, count int) ([]result, error) {
	cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", name+"$",
		"-test.benchtime", benchtime, "-test.count", strconv.Itoa(count))
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		os.Stderr.Write(out)
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var rs []result
	for _, line := range strings.Split(string(out), "\n") {
		if r, ok := parseLine(line); ok {
			fmt.Println(line)
			rs = append(rs, r)
		}
	}
	if len(rs) != count {
		os.Stderr.Write(out)
		return nil, fmt.Errorf("%s: %d result lines, want %d", name, len(rs), count)
	}
	return rs, nil
}

// command runs name with args in dir and returns its trimmed stdout.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// cpuModel is the host CPU's model name, or "" where /proc/cpuinfo does
// not give one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
