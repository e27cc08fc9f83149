package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
)

// sampleSnapshot builds a deterministic snapshot exercising every export
// section: counters, histograms, flight-recorder quanta, and events.
func sampleSnapshot() Snapshot {
	c := New(Config{RingQuanta: 8, RingEvents: 4})
	for q := int64(1); q <= 12; q++ {
		var s QuantumSample
		s.Quantum = q
		s.Cycle = q * 264
		s.Token = int(q % NumPorts)
		s.ReqMask = 0b1111
		s.GrantMask = uint8(1 << (q % NumPorts))
		s.FragWords[q%NumPorts] = 24
		for p := 0; p < NumPorts; p++ {
			s.Dropped[p] = q / 3
		}
		for tl := 0; tl < NumTiles; tl++ {
			s.TileBlocked[tl] = q * int64(tl)
		}
		c.RecordQuantum(s)
	}
	c.RecordEvent(trace.Event{Cycle: 500, Port: 2, Kind: trace.EvLineDown})
	c.RecordEvent(trace.Event{Cycle: 900, Port: 2, Kind: trace.EvDegrade})
	c.RecordEvent(trace.Event{Cycle: 2000, Port: 2, Kind: trace.EvFailStop,
		Detail: "probe, timeout"})

	var m Meta
	m.Cycle = 3200
	m.ClockHz = 425e6
	m.DeadPort = 2
	m.ProbationPort = -1
	m.FabricLost = 3
	for p := 0; p < NumPorts; p++ {
		m.Ports[p] = PortCounters{
			Accepted: int64(40 + p), Dropped: 4, PktsOut: int64(30 + p),
			WordsIn: 1600, WordsOut: int64(800 * (p + 1)),
		}
	}
	for tl := 0; tl < NumTiles; tl++ {
		m.Tiles[tl] = TileMeta{Tile: tl, Role: "ingress", Run: 100, Blocked: 50, Idle: 10}
	}
	return c.Snapshot(m)
}

func TestEncodeDispatch(t *testing.T) {
	s := sampleSnapshot()
	for _, f := range Formats() {
		out, err := s.Encode(f)
		if err != nil || len(out) == 0 {
			t.Errorf("Encode(%q): err=%v len=%d", f, err, len(out))
		}
	}
	if _, err := s.Encode("xml"); err == nil {
		t.Error("Encode(xml) should fail")
	}
}

func TestJSONLWellFormed(t *testing.T) {
	s := sampleSnapshot()
	out := s.JSONL()
	sc := bufio.NewScanner(bytes.NewReader(out))
	counts := map[string]int{}
	for sc.Scan() {
		var rec struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		counts[rec.Record]++
	}
	want := map[string]int{"meta": 1, "port": NumPorts, "tile": NumTiles,
		"quantum": 8, "event": 3}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("JSONL %q lines = %d, want %d", k, counts[k], n)
		}
	}
}

func TestCSVSections(t *testing.T) {
	s := sampleSnapshot()
	out := string(s.CSV())
	for _, sec := range []string{"#meta\n", "#ports\n", "#tiles\n", "#quanta\n", "#events\n"} {
		if !strings.Contains(out, sec) {
			t.Errorf("CSV missing section %q", sec)
		}
	}
	// Commas inside event detail must be escaped so rows stay rectangular.
	if !strings.Contains(out, "fail-stop,probe; timeout") {
		t.Errorf("CSV event detail not escaped:\n%s", out)
	}
}

func TestPrometheusShape(t *testing.T) {
	s := sampleSnapshot()
	out := string(s.Prometheus())
	for _, want := range []string{
		"# TYPE raw_router_pkts_out_total counter",
		`raw_router_pkts_out_total{port="0"} 30`,
		`raw_router_link_utilization{port="0"} 0.25`,
		"# TYPE raw_router_token_wait_quanta histogram",
		`raw_router_token_wait_quanta_bucket{port="0",le="+Inf"}`,
		`raw_router_tile_cycles_total{tile="0",role="ingress",state="blocked"} 50`,
		`raw_router_recovery_events_total{kind="fail-stop"} 1`,
		"raw_router_dead_port 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	// le buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(out, `raw_router_token_wait_quanta_bucket{port="0",le="+Inf"} 3`) {
		t.Errorf("cumulative +Inf bucket wrong:\n%s", out)
	}
}

// TestExportDeterminism renders the same logical snapshot twice via
// independently built collectors and demands byte-identical output in
// every format — the property the replay test in internal/fault
// extends to full simulations.
func TestExportDeterminism(t *testing.T) {
	a, b := sampleSnapshot(), sampleSnapshot()
	for _, f := range Formats() {
		ea, _ := a.Encode(f)
		eb, _ := b.Encode(f)
		if !bytes.Equal(ea, eb) {
			t.Errorf("format %q not deterministic", f)
		}
	}
}
