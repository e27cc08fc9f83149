package telemetry

import (
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
	// carries the chip index), oldest first; EventTotals counts it by
	// kind in trace.EventKind order.
	Events      []EventRecord `json:"events"`
	EventTotals []EventTotal  `json:"event_totals,omitempty"`
}

// Encode renders the fabric snapshot in the named format (see Formats).
func (s *FabricSnapshot) Encode(format string) ([]byte, error) {
	return encode(format, s.table, s.jsonl)
}

// table is the fabric snapshot's metric table in export order; logs
// appends the lifecycle event log, which only CSV renders.
func (s *FabricSnapshot) table(logs bool) []section {
	ints := func(vs []int) string { return strings.ReplaceAll(strings.Trim(fmt.Sprint(vs), "[]"), " ", ";") }
	fabric := section{name: "fabric", keys: []string{"topology", "dead_chips", "dead_trunks"}}
	fabric.row([]string{s.Topology, ints(s.DeadChips), ints(s.DeadTrunks)},
		fam("gauge", "raw_fabric_schema", "schema", "Fabric telemetry snapshot schema version.", num(int64(s.Schema))),
		fam("gauge", "raw_fabric_cycle", "cycle", "Simulated fabric cycle at snapshot.", num(s.Cycle)),
		fam("gauge", "raw_fabric_chips", "chips", "Chip slots in the fabric.", num(int64(s.Chips))).withLabels("topology"),
		fam("gauge", "raw_fabric_externals", "externals", "External ports the fabric exposes.", num(int64(s.Externals))),
		fam("gauge", "raw_fabric_dead_chips", "dead_chip_count", "Currently-killed chip slots.", num(int64(len(s.DeadChips)))),
		fam("gauge", "raw_fabric_dead_trunks", "dead_trunk_count", "Currently-dark trunks.", num(int64(len(s.DeadTrunks)))),
		fam("counter", "raw_fabric_bisection_words_total", "bisection_words", "Delivered words crossing the bisection cut.", num(s.BisectionWords)),
		fam("gauge", "raw_fabric_bisection_utilization", "bisection_utilization", "Bisection occupancy (delivered words per cycle per cut capacity).", flt(s.BisectionUtilization)))

	trunks := section{name: "trunks", keys: []string{"trunk", "dir", "a", "a_port", "b", "b_port"}, labels: []string{"trunk", "dir"}}
	for _, t := range s.Trunks {
		for j, d := range t.Dir {
			trunks.row([]string{strconv.Itoa(t.Trunk), []string{"ab", "ba"}[j], strconv.Itoa(t.A), strconv.Itoa(t.APort), strconv.Itoa(t.B), strconv.Itoa(t.BPort)},
				fam("counter", "raw_fabric_trunk_drained_words_total", "drained", "Words taken off the source chip's trunk pins.", num(d.Drained)),
				fam("counter", "raw_fabric_trunk_delivered_words_total", "delivered", "Words delivered onto the destination chip's trunk pins.", num(d.Delivered)),
				fam("counter", "raw_fabric_trunk_dropped_words_total", "dropped", "Words dropped on the trunk (dead endpoint or bad frame).", num(d.Dropped)),
				fam("counter", "raw_fabric_trunk_retrans_words_total", "retrans", "Words moved into retransmit custody.", num(d.Retrans)),
				fam("counter", "raw_fabric_trunk_frames_total", "frames", "Frames that left the trunk framer.", num(d.Frames)),
				fam("counter", "raw_fabric_trunk_acked_total", "acked", "Frames confirmed onto the destination chip's pins.", num(d.Acked)),
				fam("gauge", "raw_fabric_trunk_held_words", "held", "Words held in the trunk framer awaiting a whole packet.", num(d.Held)),
				fam("gauge", "raw_fabric_trunk_utilization", "utilization", "Trunk occupancy (delivered words per cycle).", flt(d.Utilization)))
		}
	}

	tb := []section{fabric, trunks, keyed("event_totals", "kind",
		fam("counter", "raw_fabric_chip_events_total", "count", "Fabric lifecycle events by kind."),
		len(s.EventTotals), func(i int) (string, int64) { return s.EventTotals[i].Kind, s.EventTotals[i].Count })}
	if h := s.Heal; h != nil {
		heal := section{name: "heal"}
		heal.row(nil,
			fam("counter", "raw_fabric_heal_epochs_total", "epochs", "Heal epochs opened (route recomputations).", num(h.Epochs)),
			fam("counter", "raw_fabric_heal_reroutes_total", "reroutes", "Per-chip route tables swapped by healing.", num(h.Reroutes)),
			fam("counter", "raw_fabric_heal_retrans_frames_total", "retrans_frames", "Frames re-driven by trunk ARQ.", num(h.RetransFrames)),
			fam("counter", "raw_fabric_heal_retrans_words_total", "retrans_words", "Words re-driven by trunk ARQ.", num(h.RetransWords)),
			fam("gauge", "raw_fabric_heal_pending_frames", "pending_frames", "Frames awaiting retransmission.", num(h.PendingFrames)),
			fam("gauge", "raw_fabric_heal_pending_words", "pending_words", "Words awaiting retransmission.", num(h.PendingWords)),
			fam("counter", "raw_fabric_heal_injected_words_total", "injected", "Words offered at external ports.", num(h.Injected)),
			fam("counter", "raw_fabric_heal_delivered_words_total", "delivered", "Unique words delivered at external sinks.", num(h.Delivered)),
			fam("counter", "raw_fabric_heal_dup_words_total", "dup_words", "Duplicate words suppressed at egress.", num(h.DupWords)),
			fam("gauge", "raw_fabric_heal_partitioned", "partitioned", "1 while the surviving topology is disconnected.", flag(h.Partitioned)))
		tb = append(tb, heal, keyed("dropped", "cause",
			fam("counter", "raw_fabric_heal_dropped_words_total", "words", "End-to-end ledger drops by cause."),
			len(h.Dropped), func(i int) (string, int64) { return h.Dropped[i].Cause, h.Dropped[i].Words }))
	}
	if logs {
		tb = append(tb, eventLog("chip", s.Events))
	}
	return tb
}

// jsonl renders one JSON object per line: a meta line, one line per
// trunk, the heal record when healing is on, one per event total and
// one per lifecycle event.
func (s *FabricSnapshot) jsonl() []byte {
	b := appendRecord(nil, "fabric", struct {
		Schema               int     `json:"schema"`
		Cycle                int64   `json:"cycle"`
		Topology             string  `json:"topology"`
		Chips                int     `json:"chips"`
		Externals            int     `json:"externals"`
		DeadChips            []int   `json:"dead_chips,omitempty"`
		DeadTrunks           []int   `json:"dead_trunks,omitempty"`
		BisectionWords       int64   `json:"bisection_words"`
		BisectionUtilization float64 `json:"bisection_utilization"`
	}{s.Schema, s.Cycle, s.Topology, s.Chips, s.Externals, s.DeadChips, s.DeadTrunks,
		s.BisectionWords, s.BisectionUtilization})
	for _, t := range s.Trunks {
		b = appendRecord(b, "trunk", t)
	}
	if s.Heal != nil {
		b = appendRecord(b, "heal", s.Heal)
	}
	for _, e := range s.EventTotals {
		b = appendRecord(b, "event_total", e)
	}
	for _, e := range s.Events {
		b = appendRecord(b, "event", e)
	}
	return b
}
