package telemetry

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Exporters. Each snapshot kind describes itself once, as an ordered
// table of metric families grouped into sections. CSV and Prometheus
// are two renderers over that table, so they carry the same families by
// construction; JSONL marshals the structs the table reads. All three
// are deterministic: fixed order, shortest-float formatting, no
// timestamps, no host identity. Two runs that simulate the same cycles
// produce byte-identical exports.

// Formats lists the supported export format names.
func Formats() []string { return []string{"jsonl", "csv", "prom"} }

// encode renders a snapshot kind, given its metric table (logs adds
// the CSV-only logs) and its JSONL form, in the named format.
func encode(format string, table func(logs bool) []section, jsonl func() []byte) ([]byte, error) {
	switch format {
	case "jsonl":
		return jsonl(), nil
	case "csv":
		return renderCSV(table(true)), nil
	case "prom":
		return renderProm(table(false)), nil
	}
	return nil, fmt.Errorf("telemetry: unknown export format %q (have %s)", format, strings.Join(Formats(), ", "))
}

// Encode renders the snapshot in the named format (see Formats).
func (s *Snapshot) Encode(format string) ([]byte, error) { return encode(format, s.table, s.jsonl) }

// value is one sample: a formatted number, or a histogram.
type value struct {
	s string
	h *Histogram
}

func itoa(i int64) string { return strconv.FormatInt(i, 10) }
func num(i int64) value   { return value{s: itoa(i)} }
func flt(f float64) value { return value{s: strconv.FormatFloat(f, 'g', -1, 64)} }
func flag(b bool) value   { return num(map[bool]int64{true: 1}[b]) }

// family is one metric family: Prometheus name, help and kind (gauge,
// counter or histogram), CSV column, the section keys it carries as
// labels (nil: the section's labels), and one value per section row.
type family struct {
	name, col, help, kind string
	labels                []string
	vals                  []value
}

func fam(kind, name, col, help string, vals ...value) family {
	return family{name: name, col: col, help: help, kind: kind, vals: vals}
}

// withLabels carries only the named section keys as labels.
func (f family) withLabels(names ...string) family { f.labels = names; return f }

// section is one CSV section: one label set's rows, identified by key
// columns, and the families measured on each row. A key need not be a
// label (a trunk's endpoints, the fabric's dead lists). A section
// without families is a log, rendered only in CSV.
type section struct {
	name         string
	keys, labels []string
	rows         [][]string
	fams         []family
}

// row appends a row's key values and each family's values on it; the
// first row (or the section literal) fixes the families.
func (s *section) row(keys []string, fams ...family) {
	s.rows = append(s.rows, keys)
	if s.fams == nil {
		s.fams = fams
		return
	}
	for i := range fams {
		s.fams[i].vals = append(s.fams[i].vals, fams[i].vals...)
	}
}

// keyed is a one-family section with one row per (key value, count).
func keyed(name, key string, f family, n int, at func(i int) (string, int64)) section {
	s := section{name: name, keys: []string{key}, labels: []string{key}, fams: []family{f}}
	for i := 0; i < n; i++ {
		k, v := at(i)
		s.row([]string{k}, family{vals: []value{num(v)}})
	}
	return s
}

// leName is histogram bucket i's upper bound as Prometheus writes it.
func leName(i int) string {
	if ub := BucketUpper(i); ub >= 0 {
		return itoa(ub)
	}
	return "+Inf"
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderProm renders the table in the Prometheus text exposition format
// (version 0.0.4): one HELP and TYPE per family, then its samples;
// histograms expose cumulative le buckets, _sum and _count.
func renderProm(t []section) []byte {
	var b strings.Builder
	line := func(name string, l []string, v string) {
		if len(l) > 0 {
			name += "{" + strings.Join(l, ",") + "}"
		}
		b.WriteString(name + " " + v + "\n")
	}
	for _, sec := range t {
		for _, f := range sec.fams {
			b.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.kind + "\n")
			names := f.labels
			if names == nil {
				names = sec.labels
			}
			for i, v := range f.vals {
				var l []string
				for _, n := range names {
					l = append(l, n+`="`+labelEscaper.Replace(sec.rows[i][slices.Index(sec.keys, n)])+`"`)
				}
				if v.h == nil {
					line(f.name, l, v.s)
					continue
				}
				var cum int64
				for bi, n := range v.h.Buckets {
					cum += n
					line(f.name+"_bucket", append(l[:len(l):len(l)], `le="`+leName(bi)+`"`), itoa(cum))
				}
				line(f.name+"_sum", l, itoa(v.h.Sum))
				line(f.name+"_count", l, itoa(v.h.Count))
			}
		}
	}
	return []byte(b.String())
}

// renderCSV renders each section as a headed comma-separated table: the
// key columns, then one column per family; a histogram takes count,
// sum, max and one cumulative column per le bucket.
func renderCSV(t []section) []byte {
	var b strings.Builder
	for _, sec := range t {
		head := slices.Clone(sec.keys)
		for _, f := range sec.fams {
			if f.kind != "histogram" {
				head = append(head, f.col)
				continue
			}
			head = append(head, f.col+"_count", f.col+"_sum", f.col+"_max")
			for bi := range NumBuckets {
				head = append(head, f.col+"_le_"+strings.ToLower(strings.TrimPrefix(leName(bi), "+")))
			}
		}
		b.WriteString("#" + sec.name + "\n" + strings.Join(head, ",") + "\n")
		for r, row := range sec.rows {
			cells := slices.Clone(row)
			for _, f := range sec.fams {
				v := f.vals[r]
				if v.h == nil {
					cells = append(cells, v.s)
					continue
				}
				cells = append(cells, itoa(v.h.Count), itoa(v.h.Sum), itoa(v.h.Max))
				var cum int64
				for _, n := range v.h.Buckets {
					cum += n
					cells = append(cells, itoa(cum))
				}
			}
			b.WriteString(strings.Join(cells, ",") + "\n")
		}
	}
	return []byte(b.String())
}

// eventLog is the CSV-only event log; who names the Port column.
func eventLog(who string, events []EventRecord) section {
	s := section{name: "events", keys: []string{"cycle", who, "kind", "detail"}}
	for _, e := range events {
		s.rows = append(s.rows, []string{itoa(e.Cycle), strconv.Itoa(e.Port), e.Kind, strings.ReplaceAll(e.Detail, ",", ";")})
	}
	return s
}

// table is the router snapshot's metric table in export order; logs
// appends the flight-recorder logs, which only CSV renders.
func (s *Snapshot) table(logs bool) []section {
	meta := section{name: "meta"}
	meta.row(nil,
		fam("gauge", "raw_router_schema", "schema", "Telemetry snapshot schema version.", num(int64(s.Schema))),
		fam("gauge", "raw_router_cycle", "cycle", "Simulated chip cycle at snapshot.", num(s.Cycle)),
		fam("gauge", "raw_router_clock_hz", "clock_hz", "Simulated chip clock rate in hertz.", flt(s.ClockHz)),
		fam("counter", "raw_router_quanta_total", "quanta", "Completed crossbar quanta observed by the collector.", num(s.Quanta)),
		fam("gauge", "raw_router_dead_port", "dead_port", "Masked-out port in degraded mode (-1 healthy).", num(int64(s.DeadPort))),
		fam("gauge", "raw_router_probation_port", "probation_port", "Re-admitted port still in probation (-1 none).", num(int64(s.ProbationPort))),
		fam("gauge", "raw_router_failed", "failed", "1 if the router fail-stopped.", flag(s.Failed)),
		fam("counter", "raw_router_fabric_lost_total", "fabric_lost", "Packets lost inside the fabric by degraded-mode resets.", num(s.FabricLost)),
		fam("counter", "raw_router_macro_windows_total", "macro_windows", "Fast-engine macro-step windows executed (0 on the reference engine).", num(s.MacroWindows)),
		fam("counter", "raw_router_macro_cycles_total", "macro_cycles", "Cycles covered by fast-engine macro-step windows.", num(s.MacroCycles)),
		fam("counter", "raw_router_parked_tile_cycles_total", "parked_tile_cycles", "Tile steps the fast engine skipped while the tile was parked (0 on the reference engine).", num(s.ParkedTileCycles)))
	disarms := keyed("macro_disarms", "cause", fam("counter", "raw_router_macro_disarms_total", "count", "Macro-step windows declined, by cause."),
		len(s.MacroDisarms), func(i int) (string, int64) { return s.MacroDisarms[i].Cause, s.MacroDisarms[i].Count })
	ports := section{name: "ports", keys: []string{"port"}, labels: []string{"port"}}
	for _, p := range s.Ports {
		ports.row([]string{strconv.Itoa(p.Port)},
			fam("counter", "raw_router_accepted_total", "accepted", "Packets passing ingress validation.", num(p.Accepted)),
			fam("counter", "raw_router_dropped_total", "dropped", "Packets failing ingress validation.", num(p.Dropped)),
			fam("counter", "raw_router_denied_total", "denied", "Quanta requested and lost to arbitration.", num(p.Denied)),
			fam("counter", "raw_router_frags_sent_total", "frags_sent", "Fragments streamed into the crossbar.", num(p.FragsSent)),
			fam("counter", "raw_router_pkts_in_total", "pkts_in", "Packets fully streamed in at ingress.", num(p.PktsIn)),
			fam("counter", "raw_router_pkts_out_total", "pkts_out", "Packets delivered at egress.", num(p.PktsOut)),
			fam("counter", "raw_router_reassembled_total", "reassembled", "Packets the egress reassembled from fragments.", num(p.Reassembled)),
			fam("counter", "raw_router_lookups_total", "lookups", "Route lookups the lookup tile served.", num(p.Lookups)),
			fam("counter", "raw_router_mcast_in_total", "mcast_in", "Multicast packets accepted at ingress.", num(p.McastIn)),
			fam("counter", "raw_router_mcast_copies_total", "mcast_copies", "Multicast copies replayed toward their outputs.", num(p.McastCopies)),
			fam("counter", "raw_router_abort_dropped_total", "abort_dropped", "Packets abandoned by robustness machinery.", num(p.AbortDropped)),
			fam("counter", "raw_router_underrun_quanta_total", "underruns", "Quanta an ingress idled awaiting its line card.", num(p.Underruns)),
			fam("counter", "raw_router_reprobes_total", "reprobes", "Probes of a down input line.", num(p.Reprobes)),
			fam("counter", "raw_router_recovered_total", "recovered", "Down input lines a probe found carrying words again.", num(p.Recovered)),
			fam("counter", "raw_router_flap_drops_total", "flap_drops", "Line words discarded while the input line was down.", num(p.FlapDrops)),
			fam("counter", "raw_router_words_in_total", "words_in", "Words consumed from the input pins.", num(p.WordsIn)),
			fam("counter", "raw_router_words_out_total", "words_out", "Words emitted on the output pins.", num(p.WordsOut)),
			fam("counter", "raw_router_granted_quanta_total", "granted_quanta", "Quanta the scheduler granted this port.", num(p.GrantedQuanta)),
			fam("counter", "raw_router_denied_quanta_total", "denied_quanta", "Quanta this port requested and was not granted.", num(p.DeniedQuanta)),
			fam("counter", "raw_router_words_granted_total", "words_granted", "Granted fragment words.", num(p.WordsGranted)),
			fam("gauge", "raw_router_link_utilization", "link_utilization", "Output-link occupancy (words per cycle).", flt(p.LinkUtilization)),
			fam("histogram", "raw_router_token_wait_quanta", "token_wait", "Quanta a granted port waited since its previous grant.", value{h: &p.TokenWait}))
	}
	cycles := section{name: "tile_cycles", keys: []string{"tile", "role", "state"}, labels: []string{"tile", "role", "state"}}
	tiles := section{name: "tiles", keys: []string{"tile"}, labels: []string{"tile"}}
	for _, t := range s.Tiles {
		for j, n := range []int64{t.Run, t.Blocked, t.Idle} {
			cycles.row([]string{strconv.Itoa(t.Tile), t.Role, []string{"run", "blocked", "idle"}[j]},
				fam("counter", "raw_router_tile_cycles_total", "cycles", "Cumulative tile cycles by state.", num(n)))
		}
		tiles.row([]string{strconv.Itoa(t.Tile)},
			fam("histogram", "raw_router_tile_blocked_cycles_per_quantum", "blocked_pq", "Blocked cycles per quantum per tile.", value{h: &t.BlockedPerQuantum}))
	}
	tb := []section{meta, disarms, ports, cycles, tiles, keyed("event_totals", "kind",
		fam("counter", "raw_router_recovery_events_total", "count", "Typed recovery events by kind."),
		len(s.EventTotals), func(i int) (string, int64) { return s.EventTotals[i].Kind, s.EventTotals[i].Count })}
	if sv := s.Serve; sv != nil {
		serve := section{name: "serve"}
		serve.row(nil,
			fam("gauge", "raw_router_serve_state", "state", "Daemon lifecycle (0 serving, 1 draining, 2 drained, 3 failed).", num(int64(sv.State))),
			fam("gauge", "raw_router_serve_ready", "ready", "1 when /readyz would return 200.", flag(sv.Ready)),
			fam("gauge", "raw_router_serve_slice", "slice", "Completed admission slices.", num(sv.Slice)),
			fam("gauge", "raw_router_serve_soak_windows", "soak_windows", "Rolling chaos windows installed.", num(int64(sv.SoakWindows))),
			fam("gauge", "raw_router_serve_window_gbps", "window_gbps", "Delivered throughput over the last full SLO window.", flt(sv.WindowGbps)),
			fam("counter", "raw_router_serve_slo_violations_total", "slo_violations", "SLO violation entering-transitions.", num(sv.Violations)))
		ingest := section{name: "serve_ports", keys: []string{"port"}, labels: []string{"port"}}
		for _, p := range sv.Ports {
			ingest.row([]string{strconv.Itoa(p.Port)},
				fam("counter", "raw_router_serve_offered_words_total", "offered_words", "Words the feeder offered.", num(p.Offered)),
				fam("counter", "raw_router_serve_admitted_words_total", "admitted_words", "Words admitted to the input pins.", num(p.Admitted)),
				fam("counter", "raw_router_serve_shed_words_total", "shed_words", "Words shed by admission overload.", num(p.Shed)),
				fam("counter", "raw_router_serve_drain_discarded_words_total", "drain_discarded_words", "Queued words discarded by a forced drain.", num(p.DrainDiscarded)),
				fam("gauge", "raw_router_serve_queue_words", "queue_words", "Words currently queued at admission.", num(p.Queued)))
		}
		tb = append(tb, serve, ingest)
	}
	if logs {
		q := section{name: "quanta", keys: strings.Split("quantum,cycle,token,req_mask,grant_mask,w0,w1,w2,w3,d0,d1,d2,d3", ",")}
		for _, r := range s.Recent {
			q.rows = append(q.rows, strings.Split(fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d", r.Quantum, r.Cycle, r.Token, r.ReqMask,
				r.GrantMask, r.Words[0], r.Words[1], r.Words[2], r.Words[3], r.Drops[0], r.Drops[1], r.Drops[2], r.Drops[3]), ","))
		}
		tb = append(tb, q, eventLog("port", s.Events))
	}
	return tb
}

// jsonl renders one JSON object per line: a meta line, one line per
// macro disarm cause, port and tile, one per event total, the serve
// plane when present, then one line per flight-recorder quantum and
// one per event.
func (s *Snapshot) jsonl() []byte {
	b := appendRecord(nil, "meta", struct {
		Schema        int     `json:"schema"`
		Cycle         int64   `json:"cycle"`
		ClockHz       float64 `json:"clock_hz"`
		Quanta        int64   `json:"quanta"`
		DeadPort      int     `json:"dead_port"`
		ProbationPort int     `json:"probation_port"`
		Failed        bool    `json:"failed"`
		FabricLost    int64   `json:"fabric_lost"`
		MacroWindows  int64   `json:"macro_windows"`
		MacroCycles   int64   `json:"macro_cycles"`
		ParkedCycles  int64   `json:"parked_tile_cycles"`
	}{s.Schema, s.Cycle, s.ClockHz, s.Quanta, s.DeadPort, s.ProbationPort,
		s.Failed, s.FabricLost, s.MacroWindows, s.MacroCycles, s.ParkedTileCycles})
	for _, d := range s.MacroDisarms {
		b = appendRecord(b, "macro_disarm", d)
	}
	for p := range s.Ports {
		b = appendRecord(b, "port", &s.Ports[p])
	}
	for t := range s.Tiles {
		b = appendRecord(b, "tile", &s.Tiles[t])
	}
	for _, e := range s.EventTotals {
		b = appendRecord(b, "event_total", e)
	}
	if s.Serve != nil {
		b = appendRecord(b, "serve", s.Serve)
	}
	for _, q := range s.Recent {
		b = appendRecord(b, "quantum", q)
	}
	for _, e := range s.Events {
		b = appendRecord(b, "event", e)
	}
	return b
}

// appendRecord appends v as one JSON line whose first key is
// "record": record.
func appendRecord(b []byte, record string, v any) []byte {
	j, err := json.Marshal(v)
	if err != nil {
		panic("telemetry: JSONL marshal: " + err.Error())
	}
	b = append(b, `{"record":`...)
	b = strconv.AppendQuote(b, record)
	if len(j) > 2 {
		b = append(b, ',')
	}
	b = append(b, j[1:]...)
	return append(b, '\n')
}
