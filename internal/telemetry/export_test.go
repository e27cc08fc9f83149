package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// CheckExposition is checkExposition for the external conformance test,
// which renders real router, fabric and daemon bodies.
var CheckExposition = checkExposition

// tabled is either snapshot kind: its metric table and its encoder.
type tabled interface {
	table(logs bool) []section
	Encode(format string) ([]byte, error)
}

// sampleSnapshot builds a deterministic snapshot exercising every export
// section: counters, histograms, flight-recorder quanta, events, event
// totals and macro disarms. Every per-port counter holds a distinct
// value, so a family wired to the wrong field shows.
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

	s := c.Snapshot()
	s.Cycle = 3200
	s.ClockHz = 425e6
	s.DeadPort = 2
	s.ProbationPort = -1
	s.FabricLost = 3
	s.MacroWindows, s.MacroCycles = 7, 900
	s.ParkedTileCycles = 4321
	s.MacroDisarms = []MacroDisarm{{Cause: "exec_busy", Count: 5}, {Cause: "budget", Count: 0}}
	for p := 0; p < NumPorts; p++ {
		b := int64(100 * (p + 1))
		s.Ports[p].PortCounters = PortCounters{
			Accepted: b + 1, Dropped: b + 2, Denied: b + 3, FragsSent: b + 4,
			PktsIn: b + 5, PktsOut: int64(30 + p), Reassembled: b + 7, Lookups: b + 8,
			McastIn: b + 9, McastCopies: b + 10, AbortDropped: b + 11, Underruns: b + 12,
			Reprobes: b + 13, Recovered: b + 14, FlapDrops: b + 15,
			WordsIn: 1600, WordsOut: int64(800 * (p + 1)),
		}
		s.Ports[p].LinkUtilization = float64(s.Ports[p].WordsOut) / float64(s.Cycle)
	}
	for tl := 0; tl < NumTiles; tl++ {
		t := &s.Tiles[tl]
		t.Role, t.Run, t.Blocked, t.Idle = "ingress", 100, 50, 10
	}
	return s
}

// sampleServe is sampleSnapshot as a serve daemon reports it.
func sampleServe() Snapshot {
	s := sampleSnapshot()
	s.Serve = &ServeSample{State: 1, Slice: 72, SoakWindows: 2, WindowGbps: 12.9072265625, Violations: 1}
	for p := range s.Serve.Ports {
		s.Serve.Ports[p] = ServePort{Port: p, Offered: 131072, Admitted: int64(1000 * p),
			Shed: int64(7 * p), DrainDiscarded: int64(p), Queued: int64(64 * p)}
	}
	return s
}

// sampleFabric is a healed ring: one dead trunk, lifecycle events, ARQ
// traffic and the delivery ledger.
func sampleFabric() FabricSnapshot {
	s := FabricSnapshot{Schema: SchemaVersion, Cycle: 30000, Topology: `ring-4`, Chips: 4, Externals: 8,
		DeadChips: []int{2}, DeadTrunks: []int{0, 3}, BisectionWords: 80896, BisectionUtilization: 0.6741333333333334}
	for i := 0; i < 4; i++ {
		ts := TrunkSample{Trunk: i, A: i, APort: 2, B: (i + 1) % 4, BPort: 3}
		for d := range ts.Dir {
			b := int64(1000*i + 100*d)
			ts.Dir[d] = TrunkDirSample{Drained: b + 1, Delivered: b + 2, Dropped: b + 3, Retrans: b + 4,
				Frames: b + 5, Acked: b + 6, Held: b + 7, Utilization: float64(b+2) / 30000}
		}
		s.Trunks = append(s.Trunks, ts)
	}
	s.Heal = &HealSample{Enabled: true, Epochs: 2, Reroutes: 4, RetransFrames: 3, RetransWords: 768,
		PendingFrames: 1, PendingWords: 256, Injected: 125440, Delivered: 42595, DupWords: 9, Partitioned: true,
		Dropped: []DropSample{{Cause: "dead-port", Words: 0}, {Cause: "trunk-dead", Words: 33}}}
	s.Events = []EventRecord{
		{Cycle: 20000, Port: 0, Kind: "trunk-kill", Detail: "c0p2-c1p3"},
		{Cycle: 20000, Port: 1, Kind: "heal-reroute", Detail: "dead chips 0, dead trunks 1"},
		{Cycle: 25000, Port: 2, Kind: "chip-kill"},
		{Cycle: 26000, Port: 3, Kind: "trunk-kill", Detail: "c3p2-c0p3"},
	}
	var n [trace.NumEventKinds]int64
	for _, e := range s.Events {
		n[trace.KindOf(e.Kind)]++
	}
	s.EventTotals = Totals(&n)
	return s
}

func TestEncodeDispatch(t *testing.T) {
	s := sampleSnapshot()
	f := sampleFabric()
	for _, format := range Formats() {
		for name, x := range map[string]interface{ Encode(string) ([]byte, error) }{"router": &s, "fabric": &f} {
			out, err := x.Encode(format)
			if err != nil || len(out) == 0 {
				t.Errorf("%s Encode(%q): err=%v len=%d", name, format, err, len(out))
			}
		}
	}
	if _, err := s.Encode("xml"); err == nil {
		t.Error("Encode(xml) should fail")
	}
	if _, err := f.Encode("xml"); err == nil {
		t.Error("fabric Encode(xml) should fail")
	}
}

func TestJSONLWellFormed(t *testing.T) {
	s := sampleServe()
	out := s.jsonl()
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
	want := map[string]int{"meta": 1, "macro_disarm": 2, "port": NumPorts, "tile": NumTiles,
		"event_total": 3, "serve": 1, "quantum": 8, "event": 3}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("JSONL %q lines = %d, want %d", k, counts[k], n)
		}
	}
}

func TestCSVSections(t *testing.T) {
	s := sampleSnapshot()
	out, _ := s.Encode("csv")
	for _, sec := range []string{"#meta\n", "#ports\n", "#tiles\n", "#quanta\n", "#events\n"} {
		if !bytes.Contains(out, []byte(sec)) {
			t.Errorf("CSV missing section %q", sec)
		}
	}
	// Commas inside event detail must be escaped so rows stay rectangular.
	if !bytes.Contains(out, []byte("fail-stop,probe; timeout")) {
		t.Errorf("CSV event detail not escaped:\n%s", out)
	}
	f := sampleFabric()
	out, _ = f.Encode("csv")
	for _, sec := range []string{"#fabric\n", "#trunks\n", "#heal\n", "#dropped\n", "#events\n"} {
		if !bytes.Contains(out, []byte(sec)) {
			t.Errorf("fabric CSV missing section %q", sec)
		}
	}
	for _, line := range []string{
		"topology,dead_chips,dead_trunks,schema,cycle,chips,externals,dead_chip_count,dead_trunk_count,bisection_words,bisection_utilization\n",
		"trunk,dir,a,a_port,b,b_port,drained,delivered,dropped,retrans,frames,acked,held,utilization\n",
		"\n1,ba,1,2,2,3,1101,1102,1103,1104,1105,1106,1107,0.03673333333333333\n",
		fmt.Sprintf("ring-4,2,0;3,%d,30000,4,8,1,2,80896,0.6741333333333334\n", SchemaVersion),
		"20000,1,heal-reroute,dead chips 0; dead trunks 1\n",
	} {
		if !bytes.Contains(out, []byte(line)) {
			t.Errorf("fabric CSV lacks %q:\n%s", line, out)
		}
	}
}

func TestPrometheusShape(t *testing.T) {
	s := sampleSnapshot()
	b, _ := s.Encode("prom")
	out := string(b)
	for _, want := range []string{
		"# TYPE raw_router_pkts_out_total counter",
		`raw_router_pkts_out_total{port="0"} 30`,
		`raw_router_link_utilization{port="0"} 0.25`,
		"# TYPE raw_router_token_wait_quanta histogram",
		`raw_router_token_wait_quanta_bucket{port="0",le="+Inf"}`,
		`raw_router_tile_cycles_total{tile="0",role="ingress",state="blocked"} 50`,
		`raw_router_recovery_events_total{kind="fail-stop"} 1`,
		`raw_router_macro_disarms_total{cause="exec_busy"} 5`,
		"raw_router_dead_port 2",
		// The families CSV always had and Prometheus gained in schema v4.
		"raw_router_clock_hz 4.25e+08",
		`raw_router_reassembled_total{port="1"} 207`,
		`raw_router_lookups_total{port="1"} 208`,
		`raw_router_mcast_in_total{port="1"} 209`,
		`raw_router_mcast_copies_total{port="1"} 210`,
		`raw_router_reprobes_total{port="1"} 213`,
		`raw_router_recovered_total{port="1"} 214`,
		`raw_router_flap_drops_total{port="1"} 215`,
		`raw_router_words_in_total{port="1"} 1600`,
		// Host-side parking counter, schema v5.
		"raw_router_parked_tile_cycles_total 4321",
	} {
		if !strings.Contains(out, want+"\n") && !strings.Contains(out, want+" ") {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	// le buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(out, `raw_router_token_wait_quanta_bucket{port="0",le="+Inf"} 3`) {
		t.Errorf("cumulative +Inf bucket wrong:\n%s", out)
	}

	f := sampleFabric()
	b, _ = f.Encode("prom")
	out = string(b)
	for _, want := range []string{
		`raw_fabric_chips{topology="ring-4"} 4`,
		"raw_fabric_externals 8",
		`raw_fabric_trunk_frames_total{trunk="1",dir="ba"} 1105`,
		`raw_fabric_trunk_acked_total{trunk="1",dir="ab"} 1006`,
		"raw_fabric_heal_retrans_words_total 768",
		"raw_fabric_heal_pending_words 256",
		`raw_fabric_chip_events_total{kind="chip-kill"} 1`,
		`raw_fabric_chip_events_total{kind="trunk-kill"} 2`,
		"raw_fabric_dead_trunks 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("fabric Prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestEventTotalsOutliveRing: the recovery-event counters count every
// event ever recorded, not the ring's last RingEvents. A daemon writes a
// checkpoint event per periodic checkpoint, so counting the ring stalled
// checkpoint at 64 and pushed older kinds out of the series.
func TestEventTotalsOutliveRing(t *testing.T) {
	c := New(Config{})
	c.RecordEvent(trace.Event{Cycle: 1, Port: -1, Kind: trace.EvSLOViolation})
	for i := 0; i < 164; i++ {
		c.RecordEvent(trace.Event{Cycle: int64(2 + i), Port: -1, Kind: trace.EvCheckpoint})
	}
	s := c.Snapshot()
	if len(s.Events) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(s.Events))
	}
	want := map[string][]string{
		"prom":  {`raw_router_recovery_events_total{kind="slo-violation"} 1`, `raw_router_recovery_events_total{kind="checkpoint"} 164`},
		"csv":   {"#event_totals\nkind,count\nslo-violation,1\ncheckpoint,164"},
		"jsonl": {`{"record":"event_total","kind":"slo-violation","count":1}`, `{"record":"event_total","kind":"checkpoint","count":164}`},
	}
	for format, lines := range want {
		out, err := s.Encode(format)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			if !strings.Contains(string(out), l+"\n") {
				t.Errorf("%s export lacks %q", format, l)
			}
		}
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

// promSamples parses exposition text into {name{sorted labels} → value}.
func promSamples(t *testing.T, body []byte) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, err := parseSample(line)
		if err != nil {
			t.Fatal(err)
		}
		out[sampleKey(name, labels)] = v
	}
	return out
}

func sampleKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k, v := range labels {
		keys = append(keys, k+"="+v)
	}
	sort.Strings(keys)
	return name + "{" + strings.Join(keys, ",") + "}"
}

// csvSamples parses CSV output into the same keys, reading every cell
// by its header name: each family's column (a histogram's _count, _sum
// and _le_* columns; its max has no Prometheus sample) under the labels
// its key columns name. The table
// supplies only names; every value comes from the CSV text.
func csvSamples(t *testing.T, tb []section, body []byte) map[string]string {
	t.Helper()
	rows := map[string][]map[string]string{}
	var head []string
	var sec string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			sec, head = line[1:], nil
		case head == nil:
			head = strings.Split(line, ",")
		default:
			cells := strings.Split(line, ",")
			if len(cells) != len(head) {
				t.Fatalf("CSV #%s row %q has %d cells, header %d", sec, line, len(cells), len(head))
			}
			r := map[string]string{}
			for i, h := range head {
				r[h] = cells[i]
			}
			rows[sec] = append(rows[sec], r)
		}
	}
	out := map[string]string{}
	for _, s := range tb {
		for _, f := range s.fams {
			names := f.labels
			if names == nil {
				names = s.labels
			}
			for _, r := range rows[s.name] {
				labels := map[string]string{}
				for _, n := range names {
					labels[n] = r[n]
				}
				cell := func(c string) string {
					v, ok := r[c]
					if !ok {
						t.Fatalf("CSV #%s has no column %q", s.name, c)
					}
					return v
				}
				if f.kind != "histogram" {
					out[sampleKey(f.name, labels)] = cell(f.col)
					continue
				}
				out[sampleKey(f.name+"_count", labels)] = cell(f.col + "_count")
				out[sampleKey(f.name+"_sum", labels)] = cell(f.col + "_sum")
				for bi := 0; bi < NumBuckets; bi++ {
					le := leName(bi)
					labels["le"] = le
					out[sampleKey(f.name+"_bucket", labels)] = cell(f.col + "_le_" + strings.ToLower(strings.TrimPrefix(le, "+")))
				}
			}
		}
	}
	return out
}

// TestFormatsAgree: CSV and Prometheus carry the same {(family, labels)
// → value} set — histogram buckets included — on a router snapshot, a
// healed-fabric snapshot and one carrying the serve plane.
func TestFormatsAgree(t *testing.T) {
	s, sv, f := sampleSnapshot(), sampleServe(), sampleFabric()
	for name, x := range map[string]tabled{"router": &s, "serve": &sv, "fabric": &f} {
		csv, _ := x.Encode("csv")
		prom, _ := x.Encode("prom")
		cs, ps := csvSamples(t, x.table(false), csv), promSamples(t, prom)
		for k, v := range ps {
			if cs[k] != v {
				t.Errorf("%s: %s is %q in Prometheus, %q in CSV", name, k, v, cs[k])
			}
		}
		for k := range cs {
			if _, ok := ps[k]; !ok {
				t.Errorf("%s: %s is in CSV only", name, k)
			}
		}
		for _, fam := range map[string][]string{
			"router": {"raw_router_clock_hz", `raw_router_reassembled_total{port=0}`, `raw_router_lookups_total{port=0}`,
				`raw_router_mcast_in_total{port=0}`, `raw_router_mcast_copies_total{port=0}`, `raw_router_reprobes_total{port=0}`,
				`raw_router_recovered_total{port=0}`, `raw_router_flap_drops_total{port=0}`, `raw_router_words_in_total{port=0}`,
				`raw_router_token_wait_quanta_bucket{le=3,port=0}`},
			"serve": {"raw_router_serve_state", `raw_router_serve_queue_words{port=3}`},
			"fabric": {"raw_fabric_externals", `raw_fabric_trunk_frames_total{dir=ab,trunk=0}`, `raw_fabric_trunk_acked_total{dir=ba,trunk=3}`,
				"raw_fabric_heal_retrans_words_total", "raw_fabric_heal_pending_words"},
		}[name] {
			if !strings.Contains(fam, "{") {
				fam += "{}"
			}
			if _, ok := cs[fam]; !ok {
				t.Errorf("%s: the compared set lacks %s", name, fam)
			}
		}
	}
}

// decodeJSONL reads a JSONL export back line by line, handing each line
// to the decoder registered for its record type.
func decodeJSONL(t *testing.T, b []byte, into map[string]func([]byte) error) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		var rec struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if into[rec.Record] == nil {
			t.Fatalf("unknown JSONL record %q", rec.Record)
		}
		if err := into[rec.Record](line); err != nil {
			t.Fatal(err)
		}
	}
}

// into decodes a line into *v; appendTo appends a decoded line to *s.
func into(v any) func([]byte) error { return func(b []byte) error { return json.Unmarshal(b, v) } }
func appendTo[T any](s *[]T) func([]byte) error {
	return func(b []byte) error {
		var v T
		err := json.Unmarshal(b, &v)
		*s = append(*s, v)
		return err
	}
}

// TestJSONLCarriesEveryFamily: a snapshot decoded back from its JSONL
// renders the same CSV and Prometheus text as the original, so JSONL
// carries every family's values (and the CSV logs).
func TestJSONLCarriesEveryFamily(t *testing.T) {
	for _, orig := range []Snapshot{sampleSnapshot(), sampleServe()} {
		var s Snapshot
		decodeJSONL(t, orig.jsonl(), map[string]func([]byte) error{
			"meta": into(&s), "macro_disarm": appendTo(&s.MacroDisarms), "event_total": appendTo(&s.EventTotals),
			"quantum": appendTo(&s.Recent), "event": appendTo(&s.Events),
			"port": func(b []byte) error {
				var p PortSnap
				err := json.Unmarshal(b, &p)
				s.Ports[p.Port] = p
				return err
			},
			"tile": func(b []byte) error {
				var ts TileSnap
				err := json.Unmarshal(b, &ts)
				s.Tiles[ts.Tile] = ts
				return err
			},
			"serve": func(b []byte) error { s.Serve = &ServeSample{}; return json.Unmarshal(b, s.Serve) },
		})
		sameExports(t, &orig, &s)
	}
	orig := sampleFabric()
	var f FabricSnapshot
	decodeJSONL(t, orig.jsonl(), map[string]func([]byte) error{
		"fabric": into(&f), "trunk": appendTo(&f.Trunks), "event_total": appendTo(&f.EventTotals), "event": appendTo(&f.Events),
		"heal": func(b []byte) error { f.Heal = &HealSample{}; return json.Unmarshal(b, f.Heal) },
	})
	sameExports(t, &orig, &f)
}

func sameExports(t *testing.T, want, got tabled) {
	t.Helper()
	for _, format := range []string{"csv", "prom"} {
		w, _ := want.Encode(format)
		g, _ := got.Encode(format)
		if !bytes.Equal(g, w) {
			t.Errorf("%s rendered from decoded JSONL differs:\n%s\nwant:\n%s", format, g, w)
		}
	}
}

// TestPrometheusConformance runs the exposition checker over the sample
// bodies and proves it rejects each rule's violation.
func TestPrometheusConformance(t *testing.T) {
	s, sv, f := sampleSnapshot(), sampleServe(), sampleFabric()
	f.Topology = "ring \"4\"\\\n" // every character the text format escapes
	for name, x := range map[string]tabled{"router": &s, "serve": &sv, "fabric": &f} {
		body, _ := x.Encode("prom")
		if err := checkExposition(body); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{
		"a 1\n", // a sample before any HELP/TYPE
		"# HELP a x\n# TYPE a gauge\na 1\n# HELP a x\n# TYPE a gauge\n",                              // family declared twice
		"# HELP a x\n# TYPE a gauge\n# HELP b x\n# TYPE b gauge\na 1\n",                              // sample outside its family
		"# HELP a x\n# TYPE a gauge\na 1\na 2\n",                                                     // repeated series
		"# HELP a x\n# TYPE a counter\na 1\n",                                                        // counter without _total
		"# HELP a x\n# TYPE a gauge\na_bucket 1\n",                                                   // suffix on a gauge
		"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", // decreasing buckets
		"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",                       // +Inf != _count
		"# HELP a x\n# TYPE a gauge\na{l=\"x\\q\"} 1\n",                                              // bad escape
		"# HELP a x\n# TYPE a gauge\na{l=\"x\"y\"} 1\n",                                              // unescaped quote
	} {
		if err := checkExposition([]byte(bad)); err == nil {
			t.Errorf("checker accepted %q", bad)
		}
	}
}

// checkExposition checks text-format rules on a Prometheus body: each
// family has one HELP and one TYPE line before its samples, which are
// contiguous and named after it (histograms: _bucket, _sum, _count);
// no series repeats; counters end in _total; histogram buckets never
// decrease and le="+Inf" equals _count; label values parse under the
// format's escapes.
func checkExposition(body []byte) error {
	type fam struct{ help, typ bool }
	fams := map[string]*fam{}
	var cur, kind string
	seen := map[string]bool{}
	buckets := map[string]int64{}
	infs := map[string]string{}
	for n, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE") {
			if f[2] != cur {
				if fams[f[2]] != nil {
					return fail("family %s declared again", f[2])
				}
				cur, kind = f[2], ""
				fams[cur] = &fam{}
			}
			fm := fams[cur]
			if f[1] == "HELP" {
				if fm.help || kind != "" {
					return fail("HELP repeated or after TYPE")
				}
				fm.help = true
				continue
			}
			if fm.typ || len(f) != 4 {
				return fail("TYPE repeated or malformed")
			}
			fm.typ, kind = true, f[3]
			if kind == "counter" && !strings.HasSuffix(cur, "_total") {
				return fail("counter family does not end in _total")
			}
			continue
		}
		name, labels, v, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		if fm := fams[cur]; fm == nil || !fm.help || !fm.typ {
			return fail("sample before its family's HELP and TYPE")
		}
		base := name
		if kind == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, suf) && strings.TrimSuffix(name, suf) == cur {
					base = cur
				}
			}
		}
		if base != cur || (kind == "histogram" && name == cur) {
			return fail("sample %s outside family %s (%s)", name, cur, kind)
		}
		key := sampleKey(name, labels)
		if seen[key] {
			return fail("series repeats")
		}
		seen[key] = true
		if kind != "histogram" {
			continue
		}
		le := labels["le"]
		delete(labels, "le")
		set := sampleKey(cur, labels)
		var c int64
		fmt.Sscan(v, &c)
		switch {
		case name == cur+"_bucket" && c < buckets[set]:
			return fail("bucket count decreases")
		case name == cur+"_bucket":
			buckets[set] = c
			if le == "+Inf" {
				infs[set] = v
			}
		case name == cur+"_count" && infs[set] != v:
			return fail("le=\"+Inf\" bucket %q != _count %q", infs[set], v)
		}
	}
	return nil
}

// parseSample splits `name{l="v",...} value` with text-format label
// escapes (\\, \", \n); any other escape or a bare quote is an error.
func parseSample(line string) (string, map[string]string, string, error) {
	labels := map[string]string{}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, "", fmt.Errorf("no metric name")
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return "", nil, "", fmt.Errorf("malformed label in %q", rest)
			}
			k := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, "", fmt.Errorf("unterminated label value")
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" || !strings.ContainsRune(`\"n`, rune(rest[0])) {
						return "", nil, "", fmt.Errorf("bad escape in label %s", k)
					}
					c, rest = map[byte]byte{'\\': '\\', '"': '"', 'n': '\n'}[rest[0]], rest[1:]
				}
				v.WriteByte(c)
			}
			labels[k] = v.String()
			if rest != "" && rest[0] == ',' {
				rest = rest[1:]
			} else if rest == "" || rest[0] != '}' {
				return "", nil, "", fmt.Errorf("label %s not followed by , or }", k)
			}
		}
		if rest == "" {
			return "", nil, "", fmt.Errorf("unterminated label set")
		}
		rest = rest[1:]
	}
	if len(rest) < 2 || rest[0] != ' ' || strings.ContainsAny(rest[1:], " {}\"") {
		return "", nil, "", fmt.Errorf("malformed value %q", rest)
	}
	return name, labels, rest[1:], nil
}
