package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/raw"
	"repro/internal/traffic"
)

func parseWith(t *testing.T, args ...string) *Common {
	t.Helper()
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterSim(fs)
	c.RegisterFaults(fs)
	c.RegisterTrace(fs)
	c.RegisterCheckpoint(fs)
	c.RegisterMetrics(fs)
	c.RegisterFabric(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

func TestScheduleMergesTextAndSeed(t *testing.T) {
	c := parseWith(t, "-faults", "crash@5000:t6", "-faultseed", "7")
	sched, err := c.Schedule(fault.RandomOptions{
		Horizon: 100000, MaxStalls: 8, MaxFlaps: 4, MaxFreezes: 2, MaxDRAM: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) < 2 {
		t.Fatalf("schedule has %d events, want text + seeded ones", len(sched.Events))
	}
	if sched.Events[0].Kind != fault.KindCrash {
		t.Fatalf("first event kind = %v, want the parsed crash", sched.Events[0].Kind)
	}
}

func TestScheduleEmptyByDefault(t *testing.T) {
	c := parseWith(t)
	sched, err := c.Schedule(fault.RandomOptions{Horizon: 1000})
	if err != nil || len(sched.Events) != 0 {
		t.Fatalf("default schedule = %v events, err %v; want empty", len(sched.Events), err)
	}
}

func TestScheduleRejectsBadText(t *testing.T) {
	c := parseWith(t, "-faults", "explode@now")
	if _, err := c.Schedule(fault.RandomOptions{}); err == nil {
		t.Fatal("bad fault text accepted")
	}
}

func TestMetricsSinkParsing(t *testing.T) {
	cases := []struct {
		arg    string
		format string
		path   string
		bad    bool
	}{
		{"jsonl", "jsonl", "", false},
		{"csv:out.csv", "csv", "out.csv", false},
		{"prom:/tmp/m.txt", "prom", "/tmp/m.txt", false},
		{"xml", "", "", true},
		{"jsonl;out", "", "", true},
	}
	for _, tc := range cases {
		c := parseWith(t, "-metrics", tc.arg)
		sink, err := c.MetricsSink()
		if tc.bad {
			if err == nil {
				t.Errorf("-metrics %q accepted, want error", tc.arg)
			}
			continue
		}
		if err != nil {
			t.Errorf("-metrics %q: %v", tc.arg, err)
			continue
		}
		if sink.Format != tc.format || sink.Path != tc.path {
			t.Errorf("-metrics %q = %+v, want format %q path %q", tc.arg, sink, tc.format, tc.path)
		}
	}
	c := parseWith(t)
	if sink, err := c.MetricsSink(); sink != nil || err != nil {
		t.Errorf("unset -metrics = %+v, %v; want nil, nil", sink, err)
	}
}

func TestValidate(t *testing.T) {
	if err := parseWith(t, "-metrics", "bogus").Validate(); err == nil {
		t.Error("bad -metrics accepted")
	}
	if err := parseWith(t, "-engine", "fast", "-metrics", "csv:x.csv").Validate(); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

// The CLIs run the fast engine unless -engine ref asks for the
// reference interpreter.
func TestEngineDefaultsToFast(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want raw.Engine
	}{
		{nil, raw.EngineFast},
		{[]string{"-engine", "fast"}, raw.EngineFast},
		{[]string{"-engine", "ref"}, raw.EngineRef},
	} {
		if got, err := parseWith(t, tc.args...).EngineChoice(); err != nil || got != tc.want {
			t.Errorf("%v: engine %v, %v; want %v", tc.args, got, err, tc.want)
		}
	}
}

func TestValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the error must mention
	}{
		{"bad engine", []string{"-engine", "quantum"}, "engine"},
		{"malformed metrics format", []string{"-metrics", "xml:out.txt"}, "metrics"},
		{"malformed metrics separator", []string{"-metrics", "jsonl;out"}, "metrics"},
		{"checkpoint and restore collide", []string{"-checkpoint", "state.bin", "-restore", "state.bin"}, "same file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parseWith(t, tc.args...).Validate()
			if err == nil {
				t.Fatalf("%v: accepted, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
	// Checkpoint→restore chains with distinct paths stay legal, as do
	// the flags on their own.
	for _, args := range [][]string{
		{"-engine", "fast"},
		{"-checkpoint", "new.bin", "-restore", "old.bin"},
		{"-checkpoint", "state.bin"},
		{"-restore", "state.bin"},
	} {
		if err := parseWith(t, args...).Validate(); err != nil {
			t.Errorf("%v: rejected: %v", args, err)
		}
	}
}

func parseServe(t *testing.T, args ...string) (*ServeFlags, *Common) {
	t.Helper()
	var c Common
	var s ServeFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterSim(fs)
	c.RegisterTrace(fs)
	c.RegisterCheckpoint(fs)
	c.RegisterFabric(fs)
	s.RegisterServe(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &s, &c
}

func TestServeFlagsValidate(t *testing.T) {
	bad := [][]string{
		{"-soak"},                            // soak without serve
		{"-serve", "-feed", "tcp:127.0.0.1"}, // unknown feed scheme
		{"-serve", "-feed", "udp:"},          // udp with no address
		{"-serve", "-slice", "0"},            // empty slice
		{"-serve", "-ckptevery", "8"},        // periodic ckpt without -checkpoint
		{"-serve", "-soak", "-soakwindow", "0"},
		{"-serve", "-trace"}, // batch-only report
		{"-serve", "-topology", "ring", "-chips", "4"},
	}
	for _, args := range bad {
		s, c := parseServe(t, args...)
		if err := s.ValidateServe(c); err == nil {
			t.Errorf("%v: accepted, want error", args)
		}
	}
	good := [][]string{
		{},
		{"-serve"},
		{"-serve", "-feed", "udp:127.0.0.1:0"},
		{"-serve", "-soak", "-soakseed", "7"},
		{"-serve", "-ckptevery", "8", "-checkpoint", "state.bin"},
	}
	for _, args := range good {
		s, c := parseServe(t, args...)
		if err := s.ValidateServe(c); err != nil {
			t.Errorf("%v: rejected: %v", args, err)
		}
	}
}

func TestServeFeedSpec(t *testing.T) {
	s := &ServeFlags{Feed: "synthetic"}
	if kind, addr, err := s.FeedSpec(); kind != "synthetic" || addr != "" || err != nil {
		t.Fatalf("synthetic = %q %q %v", kind, addr, err)
	}
	s.Feed = "udp:127.0.0.1:9000"
	if kind, addr, err := s.FeedSpec(); kind != "udp" || addr != "127.0.0.1:9000" || err != nil {
		t.Fatalf("udp = %q %q %v", kind, addr, err)
	}
	s.Feed = "pigeon:coop"
	if _, _, err := s.FeedSpec(); err == nil {
		t.Fatal("pigeon transport accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	blob := []byte{1, 2, 3, 4}

	w := parseWith(t, "-checkpoint", path)
	n, err := w.WriteCheckpoint(func() ([]byte, error) { return blob, nil })
	if err != nil || n != len(blob) {
		t.Fatalf("WriteCheckpoint = %d, %v", n, err)
	}

	r := parseWith(t, "-restore", path)
	var got []byte
	ok, err := r.LoadCheckpoint(func(b []byte) error { got = b; return nil })
	if err != nil || !ok || string(got) != string(blob) {
		t.Fatalf("LoadCheckpoint = %v, %v, blob %v", ok, err, got)
	}

	// Unset flags are no-ops.
	none := parseWith(t)
	if n, err := none.WriteCheckpoint(nil); n != 0 || err != nil {
		t.Fatalf("unset WriteCheckpoint = %d, %v", n, err)
	}
	if ok, err := none.LoadCheckpoint(nil); ok || err != nil {
		t.Fatalf("unset LoadCheckpoint = %v, %v", ok, err)
	}
	_ = os.Remove(path)
}

func TestFabricSpecParsing(t *testing.T) {
	// Unset -topology: no fabric run, no error.
	if _, ok, err := parseWith(t).FabricSpec(); ok || err != nil {
		t.Fatalf("unset FabricSpec = %v, %v", ok, err)
	}
	// A 16-chip mesh resolves to the squarest grid.
	spec, ok, err := parseWith(t, "-topology", "mesh", "-chips", "16").FabricSpec()
	if err != nil || !ok || spec.String() != "mesh-4x4" {
		t.Fatalf("mesh 16 = %v (%v, %v)", spec, ok, err)
	}
	if spec, _, err := parseWith(t, "-topology", "ring", "-chips", "8").FabricSpec(); err != nil || spec.NumChips() != 8 {
		t.Fatalf("ring 8 = %v, %v", spec, err)
	}
	if spec, _, err := parseWith(t, "-topology", "fattree", "-chips", "6").FabricSpec(); err != nil || spec.Externals() != 8 {
		t.Fatalf("fattree 6 = %v, %v", spec, err)
	}
	// Bad kind and impossible sizes surface through Validate too.
	for _, args := range [][]string{
		{"-topology", "torus"},
		{"-topology", "mesh", "-chips", "11"},
		{"-topology", "ring", "-chips", "1"},
	} {
		c := parseWith(t, args...)
		if _, _, err := c.FabricSpec(); err == nil {
			t.Fatalf("%v: want error", args)
		}
		if err := c.Validate(); err == nil {
			t.Fatalf("%v: Validate missed the bad fabric flags", args)
		}
	}
}

// parseFabsim parses args with fabsim's fabric, fault and heal groups.
func parseFabsim(t *testing.T, args ...string) *Common {
	t.Helper()
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFabric(fs)
	c.RegisterFaults(fs)
	c.RegisterHeal(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

// fabsim rejects the fault and heal flags a run would not read, naming
// the flag.
func TestValidateFabric(t *testing.T) {
	ring := []string{"-topology", "ring", "-chips", "4"}
	for _, tc := range []struct {
		args []string
		flag string // the flag the error must name
	}{
		{append(ring, "-faultseed", "7"), "-faultseed"},
		{[]string{"-healseed", "3"}, "-healseed"},
		{append(ring, "-healseed", "3"), "-healseed"},
	} {
		err := parseFabsim(t, tc.args...).ValidateFabric()
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") && !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
	for _, args := range [][]string{
		nil,
		ring,
		append(ring, "-faults", "killchip@10:c1"),
		append(ring, "-heal", "-healseed", "3"),
	} {
		if err := parseFabsim(t, args...).ValidateFabric(); err != nil {
			t.Errorf("%v: rejected: %v", args, err)
		}
	}
}

func parseWorkload(t *testing.T, args ...string) *WorkloadFlags {
	t.Helper()
	var w WorkloadFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	w.RegisterWorkload(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &w
}

// -recordtrace records the -workload stream, so it needs the flag and a
// positive -recordslices; every way of compiling the workload says so.
func TestWorkloadRecordChecks(t *testing.T) {
	for _, args := range [][]string{
		{"-recordtrace", "day.traf"},
		{"-workload", "uniform", "-recordtrace", "day.traf", "-recordslices", "0"},
	} {
		w := parseWorkload(t, args...)
		if _, _, err := w.Build(); err == nil {
			t.Errorf("%v: Build accepted", args)
		}
		if _, err := w.BuildFor(4, traffic.Spec{Pattern: "permutation"}); err == nil {
			t.Errorf("%v: BuildFor accepted", args)
		}
	}
	w := parseWorkload(t, "-workload", "uniform", "-recordtrace", "day.traf", "-recordslices", "8")
	if _, ok, err := w.Build(); !ok || err != nil {
		t.Errorf("valid -recordtrace rejected: %v", err)
	}
}

// BuildFor gives a spec without ports the device's count, rejects an
// explicit different count, and compiles the default without -workload.
func TestBuildForPorts(t *testing.T) {
	def := traffic.Spec{Pattern: "permutation"}
	for _, tc := range []struct {
		args  []string
		ports int
		want  string // spec the run drives; "" = rejected
	}{
		{nil, 4, "permutation:ports=4,size=1024,seed=1,rate=0.8"},
		{[]string{"-workload", "uniform:size=64"}, 16, "uniform:ports=16,size=64,seed=1,rate=0.8"},
		{[]string{"-workload", "imix"}, 8, "flows:ports=8,size=1024,seed=1,rate=0.8,sizes=64/576/1500,weights=7/4/1"},
		{[]string{"-workload", "uniform:ports=16"}, 16, "uniform:ports=16,size=1024,seed=1,rate=0.8"},
		{[]string{"-workload", "uniform:ports=4"}, 16, ""},
		{[]string{"-workload", "hotspot:ports=8"}, 4, ""},
	} {
		wl, err := parseWorkload(t, tc.args...).BuildFor(tc.ports, def)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%v on %d ports: accepted %s", tc.args, tc.ports, wl.Spec)
		case tc.want == "" && !strings.Contains(err.Error(), "ports"):
			t.Errorf("%v on %d ports: error %q does not mention ports", tc.args, tc.ports, err)
		case tc.want != "" && err != nil:
			t.Errorf("%v on %d ports: %v", tc.args, tc.ports, err)
		case tc.want != "" && wl.Spec.String() != tc.want:
			t.Errorf("%v on %d ports: runs %s, want %s", tc.args, tc.ports, wl.Spec, tc.want)
		}
	}
}

// Without -workload, fabsim -topology drives the stream the repo
// benchmark's fabric-mesh16 workload measures: bench/fabric.go builds
// this spec for the 4x4 mesh, here at seed 1.
func TestFabricDefaultMatchesBench(t *testing.T) {
	mesh := cluster.Mesh(4, 4)
	ext := mesh.Externals()
	bench := traffic.MustBuild(traffic.Spec{Pattern: "permutation", Ports: ext, Size: 1024,
		Seed: 1, Params: map[string]float64{"offset": float64(ext / 2)}})
	got, err := parseWorkload(t).BuildFor(ext, FabricDefault(ext))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec, bench.Spec) {
		t.Fatalf("fabsim default %s, bench fabric-mesh16 %s", got.Spec, bench.Spec)
	}
}
