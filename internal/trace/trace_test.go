package trace_test

import (
	"strings"
	"testing"

	"repro/internal/raw"
	"repro/internal/trace"
)

func TestRecorderWindow(t *testing.T) {
	r := trace.NewRecorder(2, 10, 20)
	r.Record(5, 0, raw.StateRun)  // before window: ignored
	r.Record(25, 0, raw.StateRun) // after window: ignored
	for c := int64(10); c < 20; c++ {
		st := raw.StateRun
		if c%2 == 0 {
			st = raw.StateStallSend
		}
		r.Record(c, 0, st)
		r.Record(c, 1, raw.StateIdle)
	}
	if u := r.Utilization(0); u != 0.5 {
		t.Fatalf("utilization %f, want 0.5", u)
	}
	if bf := r.BlockedFraction(0); bf != 0.5 {
		t.Fatalf("blocked %f, want 0.5", bf)
	}
	if u := r.Utilization(1); u != 0 {
		t.Fatalf("idle tile utilization %f", u)
	}
}

func TestASCIIRender(t *testing.T) {
	r := trace.NewRecorder(2, 0, 8)
	for c := int64(0); c < 8; c++ {
		r.Record(c, 0, raw.StateRun)
		r.Record(c, 1, raw.StateStallRecv)
	}
	out := r.ASCII([]int{0, 1}, 1)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "########") {
		t.Fatalf("run row: %q", lines[1])
	}
	if !strings.Contains(lines[2], "........") {
		t.Fatalf("blocked row: %q", lines[2])
	}
}

func TestASCIIBinning(t *testing.T) {
	r := trace.NewRecorder(1, 0, 10)
	for c := int64(0); c < 10; c++ {
		st := raw.StateRun
		if c >= 5 {
			st = raw.StateIdle
		}
		r.Record(c, 0, st)
	}
	out := r.ASCII([]int{0}, 5)
	row := strings.Split(strings.TrimSpace(out), "\n")[1]
	if !strings.Contains(row, "# ") {
		t.Fatalf("binned row %q, want one run bin then one idle bin", row)
	}
}

func TestCSV(t *testing.T) {
	r := trace.NewRecorder(1, 0, 3)
	r.Record(0, 0, raw.StateRun)
	r.Record(1, 0, raw.StateStallCache)
	r.Record(2, 0, raw.StateIdle)
	csv := r.CSV([]int{0})
	if !strings.Contains(csv, "run,stall-cache,idle") {
		t.Fatalf("csv: %q", csv)
	}
	if !strings.HasPrefix(csv, "tile,c0,c1,c2") {
		t.Fatalf("csv header: %q", csv)
	}
}

func TestSummary(t *testing.T) {
	r := trace.NewRecorder(2, 0, 10)
	for c := int64(0); c < 10; c++ {
		r.Record(c, 0, raw.StateRun)
		r.Record(c, 1, raw.StateStallSend)
	}
	out := r.Summary([]int{0, 1}, func(tile int) string { return "role" })
	if !strings.Contains(out, "100.0") {
		t.Fatalf("summary: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
}

func TestEmptyWindow(t *testing.T) {
	r := trace.NewRecorder(2, 100, 100)
	r.Record(100, 0, raw.StateRun) // end is exclusive: ignored
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("empty-window utilization %f, want 0", u)
	}
	if bf := r.BlockedFraction(0); bf != 0 {
		t.Fatalf("empty-window blocked %f, want 0", bf)
	}
	out := r.ASCII([]int{0, 1}, 4) // must not panic on zero-length strips
	if !strings.Contains(out, "cycles 100..100") {
		t.Fatalf("ascii header: %q", out)
	}
	csv := r.CSV([]int{0})
	if csv != "tile\n0\n" {
		t.Fatalf("empty-window csv %q, want header-only rows", csv)
	}
}

func TestBinLargerThanWindow(t *testing.T) {
	r := trace.NewRecorder(1, 0, 4)
	for c := int64(0); c < 4; c++ {
		r.Record(c, 0, raw.StateRun)
	}
	out := r.ASCII([]int{0}, 100)
	row := strings.Split(strings.TrimSpace(out), "\n")[1]
	// The whole window collapses into a single majority bin.
	if !strings.Contains(row, "|#|") {
		t.Fatalf("oversized bin row %q, want exactly one strip char", row)
	}
}

func TestCSVGolden(t *testing.T) {
	r := trace.NewRecorder(2, 5, 8)
	r.Record(5, 0, raw.StateRun)
	r.Record(6, 0, raw.StateStallSend)
	r.Record(7, 0, raw.StateStallRecv)
	r.Record(5, 1, raw.StateStallCache)
	// cycles 6,7 of tile 1 left at the zero state (idle).
	const want = "tile,c5,c6,c7\n" +
		"0,run,stall-send,stall-recv\n" +
		"1,stall-cache,idle,idle\n"
	if got := r.CSV([]int{0, 1}); got != want {
		t.Fatalf("csv golden mismatch:\ngot  %q\nwant %q", got, want)
	}
}

func TestEventKindWireNames(t *testing.T) {
	// The wire names are frozen: exporters and golden logs match on these
	// exact bytes.
	want := map[trace.EventKind]string{
		trace.EvUnknown:         "unknown",
		trace.EvLineDown:        "line-down",
		trace.EvLineUp:          "line-up",
		trace.EvDegrade:         "degrade",
		trace.EvRestoreDrain:    "restore-drain",
		trace.EvRestoreRejected: "restore-rejected",
		trace.EvReadmit:         "readmit",
		trace.EvLive:            "live",
		trace.EvFailStop:        "fail-stop",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
		if k != trace.EvUnknown && trace.KindOf(name) != k {
			t.Errorf("KindOf(%q) = %v, want %v", name, trace.KindOf(name), k)
		}
	}
	if got := trace.KindOf("no-such-event"); got != trace.EvUnknown {
		t.Errorf("KindOf(bogus) = %v, want EvUnknown", got)
	}
	if got := trace.EventKind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestEventLogRendering(t *testing.T) {
	l := &trace.EventLog{}
	l.Add(100, 2, trace.EvLineDown)
	l.AddDetail(250, 1, trace.EvFailStop, "tile 6 wedged")
	const want = "100 p2 line-down\n250 p1 fail-stop: tile 6 wedged\n"
	if got := l.String(); got != want {
		t.Fatalf("event log:\ngot  %q\nwant %q", got, want)
	}
}

// TestRecorderNextDue: the recorder needs exactly the cycles of
// [Start, End) individually stepped.
func TestRecorderNextDue(t *testing.T) {
	r := trace.NewRecorder(2, 10, 20)
	for _, c := range []struct{ at, want int64 }{
		{0, 10}, {9, 10}, {10, 10}, {15, 15}, {19, 19}, {20, -1}, {100, -1},
	} {
		if got := r.NextDue(c.at); got != c.want {
			t.Errorf("NextDue(%d) = %d, want %d", c.at, got, c.want)
		}
	}
}
