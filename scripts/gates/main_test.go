package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func gateNamed(t *testing.T, name string) gate {
	t.Helper()
	for _, g := range gates {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no gate %q", name)
	return gate{}
}

func runs(nsPerOp []float64, metrics map[string]float64) []result {
	rs := make([]result, len(nsPerOp))
	for i, ns := range nsPerOp {
		rs[i] = result{NsPerOp: ns, Metrics: metrics}
	}
	return rs
}

var engaged = map[string]float64{"macro-cycles/op": 156.7}

// The per-round ns/op of the records the shell scripts wrote before this
// runner replaced them, and the gate values they printed.
func TestScoreMatchesShellRecords(t *testing.T) {
	cases := []struct {
		gate          string
		first, second []float64
		want          float64
	}{
		{"engine-stream",
			[]float64{1398091, 1276352, 1287784, 1258922, 1408263},
			[]float64{87008, 86649, 82644, 87330, 87897}, 14.42},
		{"engine-router",
			[]float64{1035986, 1202506, 956876, 936932, 986707},
			[]float64{150332, 136060, 133694, 127120, 135367}, 6.89},
		{"heal-idle",
			[]float64{1176172, 1267328, 1245345, 1176934, 1289953},
			[]float64{1147620, 1160355, 1184983, 1187258, 1323810}, -8.44},
		{"telemetry-off",
			[]float64{1289058, 1701140, 1658777, 1559509, 1401514},
			[]float64{1476632, 1722975, 1732372, 1542698, 1511268}, -1.08},
		{"traffic-gen",
			[]float64{19815, 20337, 26426, 26105, 29424},
			[]float64{7631994, 8950854, 15649576, 18120177, 8374989}, 0.14},
	}
	for _, tc := range cases {
		v := gateNamed(t, tc.gate).score(runs(tc.first, engaged), runs(tc.second, engaged))
		if v.Value != tc.want || !v.Pass {
			t.Errorf("%s: value %v pass %v, want %v pass", tc.gate, v.Value, v.Pass, tc.want)
		}
	}
}

// Each gate passes just inside its bar and fails just past it.
func TestGatesFailPastBar(t *testing.T) {
	// pair returns one round's ns/op for which the gate's value is x.
	pair := func(k kind, x float64) (float64, float64) {
		switch k {
		case speedup:
			return 1000 * x, 1000
		case overhead:
			return 1000, 1000 * (1 + x/100)
		default:
			return 10 * x, 1000
		}
	}
	for _, g := range gates {
		inside, past := g.bar*0.95, g.bar*1.05
		if g.kind == speedup {
			inside, past = past, inside
		}
		for _, c := range []struct {
			x    float64
			pass bool
		}{{inside, true}, {past, false}} {
			a, b := pair(g.kind, c.x)
			first := runs([]float64{a, a, a, a, a}, engaged)
			second := runs([]float64{b, b, b, b, b}, engaged)
			if v := g.score(first, second); v.Pass != c.pass {
				t.Errorf("%s at %g (bar %g): pass = %v, want %v (%s)", g.name, c.x, g.bar, v.Pass, c.pass, v.Reason)
			}
		}
	}
}

func TestRouterGateNeedsMacroCycles(t *testing.T) {
	g := gateNamed(t, "engine-router")
	ref := runs([]float64{1e6, 1e6, 1e6}, nil)
	fast := runs([]float64{1e5, 1e5, 1e5}, engaged)
	if v := g.score(ref, fast); !v.Pass {
		t.Fatalf("10x with macro cycles failed: %s", v.Reason)
	}
	fast[1] = result{NsPerOp: 1e5, Metrics: map[string]float64{"macro-cycles/op": 0}}
	if v := g.score(ref, fast); v.Pass {
		t.Error("passed with 0 macro-cycles/op in round 2")
	}
}

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkEngine/router1024B/engine=fast-2         \t    5259\t    255186 ns/op\t       156.6 macro-cycles/op\t       200.0 sim-cycles/op")
	if !ok || r.NsPerOp != 255186 || r.Metrics["macro-cycles/op"] != 156.6 || r.Metrics["sim-cycles/op"] != 200 {
		t.Errorf("parsed %+v, %v", r, ok)
	}
	for _, line := range []string{
		"goos: linux",
		"BenchmarkEngine/router1024B/engine=fast-2",
		"PASS",
		"--- FAIL: BenchmarkEngine/router1024B/engine=fast",
		"BenchmarkTrafficPlane/gen-2   1000   12.5 arrivals/op", // no ns/op
	} {
		if r, ok := parseLine(line); ok {
			t.Errorf("%q parsed as %+v", line, r)
		}
	}
}

func TestEncodeWritesOneObject(t *testing.T) {
	rec := record{Command: "go run ./scripts/gates",
		Legs: []legRecord{
			{Bench: "BenchmarkA/x", Runs: runs([]float64{10, 20}, engaged)},
			{Bench: "BenchmarkB/y", Commit: preTelemetry, Runs: runs([]float64{30}, nil)}},
		Gates: []verdict{{Gate: "a", PerRound: []float64{0.5, 1}, Value: 0.5, Unit: "x", Bar: 2}}}
	b, err := encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command string      `json:"command"`
		Legs    []legRecord `json:"legs"`
		Gates   []verdict   `json:"gates"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	if got.Command != rec.Command || !reflect.DeepEqual(got.Legs, rec.Legs) || !reflect.DeepEqual(got.Gates, rec.Gates) {
		t.Errorf("round trip: %+v", got)
	}
	if !strings.Contains(string(b), "\n    {\"bench\":\"BenchmarkB/y\",\"commit\":\"c29afd5\",\"runs\":[{\"ns_per_op\":30}]}\n") {
		t.Errorf("leg not on a line of its own:\n%s", b)
	}
}
