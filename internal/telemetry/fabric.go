package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Fabric-plane telemetry: the N-chip cluster's inter-chip accounting.
// Chip-level planes stay per-chip Snapshots; the fabric contributes what
// no single chip can see — per-trunk per-direction word conservation,
// bisection-bandwidth utilization, and the chip-lifecycle event log.
// Like Snapshot, a FabricSnapshot is immutable and its exports are
// byte-identical under either cycle engine.

// TrunkDirSample is one direction of one trunk: conservation counters
// (Drained == Delivered + Dropped + Retrans + Held at any instant) plus
// the delivered-words-per-cycle utilization gauge (1.0 = the pin limit)
// and the ARQ frame counters (Frames left the framer, Acked confirmed
// onto destination pins, Retrans words moved to retransmit custody).
type TrunkDirSample struct {
	Drained     int64   `json:"drained"`
	Delivered   int64   `json:"delivered"`
	Dropped     int64   `json:"dropped"`
	Retrans     int64   `json:"retrans"`
	Frames      int64   `json:"frames"`
	Acked       int64   `json:"acked"`
	Held        int64   `json:"held"`
	Utilization float64 `json:"utilization"`
}

// DropSample is one end-to-end ledger cause with its word count.
type DropSample struct {
	Cause string `json:"cause"`
	Words int64  `json:"words"`
}

// HealSample is the healing plane's aggregate view: heal epochs, table
// reroutes, ARQ retransmission, and the end-to-end delivery ledger.
// Present only when the fabric runs with healing enabled.
type HealSample struct {
	Enabled       bool         `json:"enabled"`
	Epochs        int64        `json:"epochs"`
	Reroutes      int64        `json:"reroutes"`
	RetransFrames int64        `json:"retrans_frames"`
	RetransWords  int64        `json:"retrans_words"`
	PendingFrames int64        `json:"pending_frames"`
	PendingWords  int64        `json:"pending_words"`
	Injected      int64        `json:"injected"`
	Delivered     int64        `json:"delivered"`
	DupWords      int64        `json:"dup_words"`
	Partitioned   bool         `json:"partitioned"`
	Dropped       []DropSample `json:"dropped,omitempty"`
}

// TrunkSample is one inter-chip link's accounting: endpoints and both
// directions (Dir[0] = A->B, Dir[1] = B->A).
type TrunkSample struct {
	Trunk int `json:"trunk"`
	A     int `json:"a"`
	APort int `json:"a_port"`
	B     int `json:"b"`
	BPort int `json:"b_port"`

	Dir [2]TrunkDirSample `json:"dir"`
}

// FabricSnapshot is the immutable fabric-plane view.
type FabricSnapshot struct {
	Schema    int    `json:"schema"`
	Cycle     int64  `json:"cycle"`
	Topology  string `json:"topology"`
	Chips     int    `json:"chips"`
	Externals int    `json:"externals"`
	// DeadChips lists currently-killed chip slots, ascending.
	DeadChips []int `json:"dead_chips,omitempty"`
	// DeadTrunks lists currently-dark trunk indices, ascending.
	DeadTrunks []int `json:"dead_trunks,omitempty"`

	Trunks []TrunkSample `json:"trunks"`

	// Heal carries the healing plane's aggregates when it is enabled.
	Heal *HealSample `json:"heal,omitempty"`

	// BisectionWords sums delivered words (both directions) over the
	// trunks crossing the canonical bisection cut; BisectionUtilization
	// normalizes by the cut's word-per-cycle capacity.
	BisectionWords       int64   `json:"bisection_words"`
	BisectionUtilization float64 `json:"bisection_utilization"`

	// Events is the fabric lifecycle log (chip-kill, chip-restore; Port
	// carries the chip index), oldest first.
	Events []EventRecord `json:"events"`
}

// Encode renders the snapshot in the named format ("jsonl", "csv",
// "prom") — the same format set as chip-level Snapshot.Encode.
func (s *FabricSnapshot) Encode(format string) ([]byte, error) {
	switch format {
	case "jsonl":
		return s.JSONL(), nil
	case "csv":
		return s.CSV(), nil
	case "prom":
		return s.Prometheus(), nil
	}
	return nil, fmt.Errorf("telemetry: unknown export format %q (have %s)",
		format, strings.Join(Formats(), ", "))
}

type jsonlFabricMeta struct {
	Record               string  `json:"record"`
	Schema               int     `json:"schema"`
	Cycle                int64   `json:"cycle"`
	Topology             string  `json:"topology"`
	Chips                int     `json:"chips"`
	Externals            int     `json:"externals"`
	DeadChips            []int   `json:"dead_chips,omitempty"`
	DeadTrunks           []int   `json:"dead_trunks,omitempty"`
	BisectionWords       int64   `json:"bisection_words"`
	BisectionUtilization float64 `json:"bisection_utilization"`
}

type jsonlHeal struct {
	Record string `json:"record"`
	*HealSample
}

type jsonlTrunk struct {
	Record string `json:"record"`
	TrunkSample
}

// JSONL renders one JSON object per line: a meta line, one line per
// trunk, one per lifecycle event.
func (s *FabricSnapshot) JSONL() []byte {
	var b strings.Builder
	line := func(v any) {
		j, err := json.Marshal(v)
		if err != nil {
			panic("telemetry: fabric JSONL marshal: " + err.Error())
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	line(jsonlFabricMeta{
		Record: "fabric", Schema: s.Schema, Cycle: s.Cycle, Topology: s.Topology,
		Chips: s.Chips, Externals: s.Externals, DeadChips: s.DeadChips,
		DeadTrunks:     s.DeadTrunks,
		BisectionWords: s.BisectionWords, BisectionUtilization: s.BisectionUtilization,
	})
	for _, t := range s.Trunks {
		line(jsonlTrunk{Record: "trunk", TrunkSample: t})
	}
	if s.Heal != nil {
		line(jsonlHeal{Record: "heal", HealSample: s.Heal})
	}
	for _, e := range s.Events {
		line(jsonlEvent{Record: "event", EventRecord: e})
	}
	return []byte(b.String())
}

// CSV renders three headed sections (#fabric, #trunks, #events).
func (s *FabricSnapshot) CSV() []byte {
	var b strings.Builder
	b.WriteString("#fabric\nschema,cycle,topology,chips,externals,dead_chips,dead_trunks,bisection_words,bisection_utilization\n")
	ints := func(vs []int) string {
		ss := make([]string, len(vs))
		for i, v := range vs {
			ss[i] = strconv.Itoa(v)
		}
		return strings.Join(ss, ";")
	}
	fmt.Fprintf(&b, "%d,%d,%s,%d,%d,%s,%s,%d,%s\n", s.Schema, s.Cycle, s.Topology,
		s.Chips, s.Externals, ints(s.DeadChips), ints(s.DeadTrunks),
		s.BisectionWords, csvF(s.BisectionUtilization))

	b.WriteString("#trunks\ntrunk,a,a_port,b,b_port," +
		"ab_drained,ab_delivered,ab_dropped,ab_retrans,ab_frames,ab_acked,ab_held,ab_utilization," +
		"ba_drained,ba_delivered,ba_dropped,ba_retrans,ba_frames,ba_acked,ba_held,ba_utilization\n")
	for _, t := range s.Trunks {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%s\n",
			t.Trunk, t.A, t.APort, t.B, t.BPort,
			t.Dir[0].Drained, t.Dir[0].Delivered, t.Dir[0].Dropped, t.Dir[0].Retrans,
			t.Dir[0].Frames, t.Dir[0].Acked, t.Dir[0].Held,
			csvF(t.Dir[0].Utilization),
			t.Dir[1].Drained, t.Dir[1].Delivered, t.Dir[1].Dropped, t.Dir[1].Retrans,
			t.Dir[1].Frames, t.Dir[1].Acked, t.Dir[1].Held,
			csvF(t.Dir[1].Utilization))
	}

	if s.Heal != nil {
		h := s.Heal
		b.WriteString("#heal\nepochs,reroutes,retrans_frames,retrans_words,pending_frames,pending_words,injected,delivered,dup_words,partitioned\n")
		part := 0
		if h.Partitioned {
			part = 1
		}
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			h.Epochs, h.Reroutes, h.RetransFrames, h.RetransWords,
			h.PendingFrames, h.PendingWords, h.Injected, h.Delivered,
			h.DupWords, part)
		b.WriteString("#dropped\ncause,words\n")
		for _, d := range h.Dropped {
			fmt.Fprintf(&b, "%s,%d\n", d.Cause, d.Words)
		}
	}

	b.WriteString("#events\ncycle,chip,kind,detail\n")
	for _, e := range s.Events {
		fmt.Fprintf(&b, "%d,%d,%s,%s\n", e.Cycle, e.Port, e.Kind,
			strings.ReplaceAll(e.Detail, ",", ";"))
	}
	return []byte(b.String())
}

// Prometheus renders the fabric plane in the text exposition format.
func (s *FabricSnapshot) Prometheus() []byte {
	var b strings.Builder
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge("raw_fabric_schema", "Fabric telemetry snapshot schema version.")
	fmt.Fprintf(&b, "raw_fabric_schema %d\n", s.Schema)
	gauge("raw_fabric_cycle", "Simulated fabric cycle at snapshot.")
	fmt.Fprintf(&b, "raw_fabric_cycle %d\n", s.Cycle)
	gauge("raw_fabric_chips", "Chip slots in the fabric.")
	fmt.Fprintf(&b, "raw_fabric_chips{topology=%q} %d\n", s.Topology, s.Chips)
	gauge("raw_fabric_dead_chips", "Currently-killed chip slots.")
	fmt.Fprintf(&b, "raw_fabric_dead_chips %d\n", len(s.DeadChips))
	gauge("raw_fabric_dead_trunks", "Currently-dark trunks.")
	fmt.Fprintf(&b, "raw_fabric_dead_trunks %d\n", len(s.DeadTrunks))
	counter("raw_fabric_bisection_words_total", "Delivered words crossing the bisection cut.")
	fmt.Fprintf(&b, "raw_fabric_bisection_words_total %d\n", s.BisectionWords)
	gauge("raw_fabric_bisection_utilization", "Bisection occupancy (delivered words per cycle per cut capacity).")
	fmt.Fprintf(&b, "raw_fabric_bisection_utilization %s\n", promF(s.BisectionUtilization))

	perDir := func(name, help string, val func(d *TrunkDirSample) string, kind string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for ti := range s.Trunks {
			t := &s.Trunks[ti]
			for d := 0; d < 2; d++ {
				dir := "ab"
				if d == 1 {
					dir = "ba"
				}
				fmt.Fprintf(&b, "%s{trunk=\"%d\",dir=\"%s\"} %s\n", name, t.Trunk, dir, val(&t.Dir[d]))
			}
		}
	}
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	perDir("raw_fabric_trunk_drained_words_total", "Words taken off the source chip's trunk pins.",
		func(d *TrunkDirSample) string { return i(d.Drained) }, "counter")
	perDir("raw_fabric_trunk_delivered_words_total", "Words delivered onto the destination chip's trunk pins.",
		func(d *TrunkDirSample) string { return i(d.Delivered) }, "counter")
	perDir("raw_fabric_trunk_dropped_words_total", "Words dropped on the trunk (dead endpoint or bad frame).",
		func(d *TrunkDirSample) string { return i(d.Dropped) }, "counter")
	perDir("raw_fabric_trunk_retrans_words_total", "Words moved into retransmit custody.",
		func(d *TrunkDirSample) string { return i(d.Retrans) }, "counter")
	perDir("raw_fabric_trunk_held_words", "Words held in the trunk framer awaiting a whole packet.",
		func(d *TrunkDirSample) string { return i(d.Held) }, "gauge")
	perDir("raw_fabric_trunk_utilization", "Trunk occupancy (delivered words per cycle).",
		func(d *TrunkDirSample) string { return promF(d.Utilization) }, "gauge")

	counter("raw_fabric_chip_events_total", "Fabric lifecycle events by kind.")
	counts := map[string]int64{}
	for _, e := range s.Events {
		counts[e.Kind]++
	}
	for _, k := range []string{"chip-kill", "chip-restore", "trunk-kill", "trunk-restore", "heal-reroute", "partition"} {
		if n, ok := counts[k]; ok {
			fmt.Fprintf(&b, "raw_fabric_chip_events_total{kind=%q} %d\n", k, n)
		}
	}
	if h := s.Heal; h != nil {
		counter("raw_fabric_heal_epochs_total", "Heal epochs opened (route recomputations).")
		fmt.Fprintf(&b, "raw_fabric_heal_epochs_total %d\n", h.Epochs)
		counter("raw_fabric_heal_reroutes_total", "Per-chip route tables swapped by healing.")
		fmt.Fprintf(&b, "raw_fabric_heal_reroutes_total %d\n", h.Reroutes)
		counter("raw_fabric_heal_retrans_frames_total", "Frames re-driven by trunk ARQ.")
		fmt.Fprintf(&b, "raw_fabric_heal_retrans_frames_total %d\n", h.RetransFrames)
		gauge("raw_fabric_heal_pending_frames", "Frames awaiting retransmission.")
		fmt.Fprintf(&b, "raw_fabric_heal_pending_frames %d\n", h.PendingFrames)
		counter("raw_fabric_heal_injected_words_total", "Words offered at external ports.")
		fmt.Fprintf(&b, "raw_fabric_heal_injected_words_total %d\n", h.Injected)
		counter("raw_fabric_heal_delivered_words_total", "Unique words delivered at external sinks.")
		fmt.Fprintf(&b, "raw_fabric_heal_delivered_words_total %d\n", h.Delivered)
		counter("raw_fabric_heal_dup_words_total", "Duplicate words suppressed at egress.")
		fmt.Fprintf(&b, "raw_fabric_heal_dup_words_total %d\n", h.DupWords)
		gauge("raw_fabric_heal_partitioned", "1 while the surviving topology is disconnected.")
		part := 0
		if h.Partitioned {
			part = 1
		}
		fmt.Fprintf(&b, "raw_fabric_heal_partitioned %d\n", part)
		counter("raw_fabric_heal_dropped_words_total", "End-to-end ledger drops by cause.")
		for _, d := range h.Dropped {
			fmt.Fprintf(&b, "raw_fabric_heal_dropped_words_total{cause=%q} %d\n", d.Cause, d.Words)
		}
	}
	return []byte(b.String())
}
