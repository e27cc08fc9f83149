package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/raw"
)

var record = flag.Bool("record", false, "rewrite golden.json from full-length reference-engine runs at seed 1")

// testScale shortens every episode to about 1% of the benchmark's.
const testScale = 100

// episode runs one shortened episode and returns its digest.
func episode(t *testing.T, w *workload, seed uint64, eng raw.Engine) uint64 {
	t.Helper()
	inst, err := w.build(w.params(seed, eng, testScale, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.run(&meter{})
	if err != nil {
		t.Fatalf("%s seed %d engine %v: %v", w.name, seed, eng, err)
	}
	if out.failed != 0 || out.ops == 0 {
		t.Fatalf("%s seed %d engine %v: %d of %d ops failed", w.name, seed, eng, out.failed, out.ops)
	}
	return out.digest
}

// TestDigests checks that each workload's outputs are identical on the
// reference and fast engines, repeat for a seed, and change with it.
func TestDigests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			fast := episode(t, w, 1, raw.EngineFast)
			if ref := episode(t, w, 1, raw.EngineRef); ref != fast {
				t.Errorf("seed 1: ref digest %016x, fast %016x", ref, fast)
			}
			if again := episode(t, w, 1, raw.EngineFast); again != fast {
				t.Errorf("seed 1 twice: digests %016x and %016x", fast, again)
			}
			if other := episode(t, w, 2, raw.EngineFast); other == fast {
				t.Errorf("seeds 1 and 2 share digest %016x", fast)
			}
		})
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestDeclared checks that BENCHMARK.json declares exactly the workloads
// and metrics the command runs and prints, and that each workload's traced
// run writes a well-formed -spans file.
func TestDeclared(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n command        %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n command        %+v", bf.PerLayer, perLayer)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for _, w := range workloads {
		rep := runWorkload(w, runOpts{seed: 1, trace: true, scale: testScale, engine: raw.EngineFast, dir: t.TempDir()})
		if res := rep.result(); rep.err != nil || !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: %v, %d of %d ops failed", w.name, rep.err, res.Failed, res.Attempted)
		}
		for name := range rep.eps[0].out.vals {
			if !declared[name] {
				t.Errorf("%s reports undeclared metric %s", w.name, name)
			}
		}
		checkSpansFile(t, rep)
		for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			rep.trace = trace
			got := rep.result().Metrics
			if len(got) != len(defs) {
				t.Errorf("%s trace=%v prints %d metrics, declares %d", w.name, trace, len(got), len(defs))
			}
			for _, d := range defs {
				if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, declared unit %s", w.name, trace, d.Name, v, d.Unit)
				}
			}
		}
	}
}

// checkSpansFile writes a traced report's spans as -spans does, decodes
// the file, and checks that every episode's spans form one tree of
// segments nested inside their parents, with calls into layers below them.
func checkSpansFile(t *testing.T, rep *report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := rep.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: spans file does not decode: %v", rep.w.name, err)
	}
	if doc.Workload != rep.w.name || doc.Host.Seed != rep.host.Seed || len(doc.Episodes) != len(rep.eps) {
		t.Fatalf("%s: spans file holds workload %q seed %d with %d episodes, want %d",
			rep.w.name, doc.Workload, doc.Host.Seed, len(doc.Episodes), len(rep.eps))
	}
	for i, spans := range doc.Episodes {
		names := map[string]int{}
		for j, s := range spans {
			names[s.Name]++
			if s.ID != int32(j) || s.End < s.Start {
				t.Fatalf("%s episode %d: span %d is %+v", rep.w.name, i+1, j, s)
			}
			if s.Parent < 0 {
				continue
			}
			if s.Parent >= s.ID {
				t.Fatalf("%s episode %d: span %+v opened before its parent", rep.w.name, i+1, s)
			}
			if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s episode %d: span %+v is not inside its parent %+v", rep.w.name, i+1, s, p)
			}
		}
		seg := rep.eps[i].segName
		if names[seg] == 0 || names["bench.setup"] != 1 {
			t.Errorf("%s episode %d: %d %s and %d bench.setup spans", rep.w.name, i+1, names[seg], seg, names["bench.setup"])
		}
		if len(names) < 4 {
			t.Errorf("%s episode %d: spans name only %v", rep.w.name, i+1, names)
		}
	}
}

// TestRecordGolden rewrites golden.json with each workload's seed-1
// digest from a full-length reference-engine episode. Run it with
// -record -timeout 30m after a change that alters simulated behaviour.
func TestRecordGolden(t *testing.T) {
	if !*record {
		t.Skip("pass -record to rewrite golden.json")
	}
	golden := map[string]string{}
	for _, w := range workloads {
		inst, err := w.build(w.params(1, raw.EngineRef, 1, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := inst.run(&meter{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		golden[w.name] = fmt.Sprintf("%016x", out.digest)
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
