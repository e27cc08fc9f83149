package exp_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run")

// goldenPath pins the paper's numbers exactly: the rendered Figure 7-1
// peak and average tables, the §7.2 headline line, the E5
// configuration-space table and every table the Rotating Crossbar
// allocator drives (ablation, fairness, QoS, multicast, scaling,
// delay-load, full utilization, cycle-level multicast, degraded and
// restored crossbar) at quick quality. The ref-vs-fast comparison of
// reproduce cannot see an allocator change, because both engines call
// the same rotor code; these sections can. The simulator is
// deterministic on either chip engine, so any drift is a behavior
// change; the band checks beside each comparison stay as the
// paper-shape check. Rewrite it only deliberately, with
// go test ./internal/exp -update.
const goldenPath = "testdata/paper.golden"

var goldenHeader = regexp.MustCompile(`^==== (\S+) ====$`)

// readGolden parses the golden file into its named sections.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if m := goldenHeader.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil {
			name = m[1]
			sections[name] = ""
		} else if name != "" {
			sections[name] += line
		}
	}
	return sections
}

// checkGolden compares got byte for byte with the golden file's section
// name, or rewrites that section under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	got = strings.TrimRight(got, "\n") + "\n"
	sections := readGolden(t)
	if *update {
		sections[name] = got
		names := make([]string, 0, len(sections))
		for n := range sections {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "==== %s ====\n%s", n, sections[n])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := sections[name]
	if !ok {
		t.Fatalf("%s has no %q section (go test ./internal/exp -update writes it)", goldenPath, name)
	}
	if got != want {
		t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, goldenPath, got, want)
	}
}

// TestFigure71PeakShape: monotone growth with packet size, each point
// within a factor band of the paper, Click two orders of magnitude below.
func TestFigure71PeakShape(t *testing.T) {
	pts, clickGbps, tb := exp.Figure71(exp.Quick, false)
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if i > 0 && p.Gbps <= pts[i-1].Gbps {
			t.Fatalf("throughput not monotone at %dB: %v", p.SizeBytes, pts)
		}
		if p.Ratio < 0.7 || p.Ratio > 1.3 {
			t.Fatalf("size %d: ratio to paper %.2f outside [0.7,1.3]", p.SizeBytes, p.Ratio)
		}
	}
	if clickGbps > 0.35 || clickGbps < 0.15 {
		t.Fatalf("Click bar %.3f, want ≈0.23", clickGbps)
	}
	if pts[4].Gbps/clickGbps < 50 {
		t.Fatalf("Raw/Click ratio %.0f, want two orders of magnitude", pts[4].Gbps/clickGbps)
	}
	if !strings.Contains(tb.String(), "Figure 7-1") {
		t.Fatal("table caption missing")
	}
	checkGolden(t, "figure71-peak", tb.String())
}

// TestFigure71AverageRatio: average ≈ 0.6-0.7 of peak at every size.
func TestFigure71AverageRatio(t *testing.T) {
	peak, _, _ := exp.Figure71(exp.Quick, false)
	avg, _, tb := exp.Figure71(exp.Quick, true)
	for i := range peak {
		ratio := avg[i].Gbps / peak[i].Gbps
		if ratio < 0.52 || ratio > 0.82 {
			t.Fatalf("size %d: avg/peak %.2f, paper reports 0.69", peak[i].SizeBytes, ratio)
		}
	}
	checkGolden(t, "figure71-average", tb.String())
}

func TestFigure73(t *testing.T) {
	small, large, render := exp.Figure73(exp.Quick)
	for _, tile := range []int{4, 7, 8, 11} {
		if small.BlockedFraction(tile) < 0.05 {
			t.Fatalf("ingress tile %d shows no gray at 64B", tile)
		}
	}
	var s, l float64
	for tile := 0; tile < 16; tile++ {
		s += small.Utilization(tile)
		l += large.Utilization(tile)
	}
	if l <= s {
		t.Fatalf("utilization at 1024B (%.2f) not above 64B (%.2f)", l, s)
	}
	if !strings.Contains(render, "Figure 7-3") {
		t.Fatal("render missing")
	}
}

func TestConfigSpace(t *testing.T) {
	r := exp.ConfigSpace()
	if r.Space != 2500 {
		t.Fatalf("space %d", r.Space)
	}
	if math.Abs(r.WordsPerConfig-3.2768) > 0.01 {
		t.Fatalf("words/config %.3f", r.WordsPerConfig)
	}
	if r.Minimized != 27 {
		t.Fatalf("minimized %d", r.Minimized)
	}
	if r.XbarProgWords >= r.SwMemWords/8 {
		t.Fatalf("program %d words, too large", r.XbarProgWords)
	}
	checkGolden(t, "configspace", exp.ConfigSpaceTable().String())
}

func TestSecondNetworkAblation(t *testing.T) {
	one, two, tb := exp.SecondNetworkAblation(exp.Quick)
	if d := math.Abs(two-one) / one; d > 0.01 {
		t.Fatalf("second network changed throughput %.2f%%", 100*d)
	}
	checkGolden(t, "ablation", tb.String())
}

func TestFairness(t *testing.T) {
	shares, tb := exp.Fairness(exp.Quick)
	for p, s := range shares {
		if math.Abs(s-0.25) > 0.02 {
			t.Fatalf("input %d share %.3f, want 0.25", p, s)
		}
	}
	checkGolden(t, "fairness", tb.String())
}

func TestHOLvsVOQ(t *testing.T) {
	fifo, voq, oq, _ := exp.HOLvsVOQ(exp.Quick)
	if math.Abs(fifo-0.586) > 0.04 {
		t.Fatalf("FIFO %.3f", fifo)
	}
	if voq < 0.95 || oq < 0.98 {
		t.Fatalf("VOQ %.3f OQ %.3f", voq, oq)
	}
}

func TestCellsVsVariable(t *testing.T) {
	cells, varlen, _ := exp.CellsVsVariable(exp.Quick)
	if varlen > cells-0.2 {
		t.Fatalf("variable-length %.3f should trail cells %.3f decisively", varlen, cells)
	}
}

func TestQoS(t *testing.T) {
	shares, tb := exp.QoS(exp.Quick)
	if shares[0] < 1.6*shares[1] {
		t.Fatalf("weighted input share %.3f vs %.3f: weight ineffective", shares[0], shares[1])
	}
	checkGolden(t, "qos", tb.String())
}

func TestMulticast(t *testing.T) {
	copies, fanout, tb := exp.Multicast(exp.Quick)
	if fanout < 2.5*copies {
		t.Fatalf("fanout %.2f vs copies %.2f: expected ≈3x amplification", fanout, copies)
	}
	checkGolden(t, "multicast", tb.String())
}

func TestHeadline(t *testing.T) {
	mpps, gbps := exp.Headline(exp.Quick)
	if gbps < 24 || gbps > 28.5 {
		t.Fatalf("headline %.2f Gbps, paper 26.9", gbps)
	}
	if mpps < 2.9 || mpps > 3.6 {
		t.Fatalf("headline %.2f Mpps, paper 3.3", mpps)
	}
	// The line cmd/reproduce prints.
	checkGolden(t, "headline", fmt.Sprintf("%.2f Mpps, %.2f Gbps at 1024B peak (paper: 3.3 Mpps, 26.9 Gbps)", mpps, gbps))
}

func TestScale8(t *testing.T) {
	tb := exp.Scale8(exp.Quick)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	checkGolden(t, "scale", tb.String())
}

func TestLookupCost(t *testing.T) {
	tb := exp.LookupCost(2000)
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestDelayVsLoad(t *testing.T) {
	tb := exp.DelayVsLoad(exp.Quick)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	checkGolden(t, "delay-load", tb.String())
}

func TestMcastCells(t *testing.T) {
	atomic, splitting, _, _ := exp.McastCells(exp.Quick)
	if splitting < atomic*1.2 {
		t.Fatalf("fanout-splitting %.3f vs atomic %.3f", splitting, atomic)
	}
}

func TestMcastCycle(t *testing.T) {
	amp, tb := exp.McastCycle(exp.Quick)
	// 30% of packets fan out 4x: expected amplification ≈ 0.7 + 0.3*4 = 1.9.
	if amp < 1.4 || amp > 2.4 {
		t.Fatalf("amplification %.2f, want ≈1.9", amp)
	}
	checkGolden(t, "mcast-cycle", tb.String())
}

func TestISLIPIterations(t *testing.T) {
	tb := exp.ISLIPIterations(exp.Quick)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestClusterScaling(t *testing.T) {
	tb := exp.ClusterScaling(exp.Quick)
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestScaleOut(t *testing.T) {
	tb := exp.ScaleOut(exp.Quick)
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestFullUtilization(t *testing.T) {
	fifo, voq, tb := exp.FullUtilization(exp.Quick)
	if fifo < 0.55 || fifo > 0.8 {
		t.Fatalf("FIFO ratio %.3f, want ≈0.69", fifo)
	}
	if voq < 0.9 {
		t.Fatalf("VOQ ratio %.3f, want ≥0.9", voq)
	}
	checkGolden(t, "full-util", tb.String())
}

func TestPIMvsISLIP(t *testing.T) {
	tb := exp.PIMvsISLIP(exp.Quick)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestCycleLatency(t *testing.T) {
	tb := exp.CycleLatency(exp.Quick)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestQuantumAblation(t *testing.T) {
	tb := exp.QuantumAblation(exp.Quick)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestNetprocConvergence(t *testing.T) {
	tb := exp.NetprocConvergence()
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestDegradedCrossbar(t *testing.T) {
	healthy, degraded, tb := exp.DegradedCrossbar(exp.Quick)
	for i := range healthy {
		ratio := degraded[i] / healthy[i]
		if ratio < 0.55 || ratio > 0.95 {
			t.Fatalf("point %d: degraded/healthy = %.3f, want ≈ 3/4", i, ratio)
		}
		perPort := (degraded[i] / 3) / (healthy[i] / 4)
		if perPort < 0.75 || perPort > 1.15 {
			t.Fatalf("point %d: per-live-port ratio %.3f, want ≈ 1", i, perPort)
		}
	}
	checkGolden(t, "degraded", tb.String())
}

// TestRestoredCrossbar: a port degraded away, restored and through its
// probation window serves within a few percent of a never-failed router
// (the probation walk quarantines the joining egress for a few quanta
// only).
func TestRestoredCrossbar(t *testing.T) {
	healthy, restored, tb := exp.RestoredCrossbar(exp.Quick)
	for i := range healthy {
		if ratio := restored[i] / healthy[i]; ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("point %d: restored/healthy = %.3f, want ≈ 1", i, ratio)
		}
	}
	checkGolden(t, "restore", tb.String())
}
