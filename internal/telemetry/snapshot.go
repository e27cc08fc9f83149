package telemetry

import "repro/internal/trace"

// PortCounters is the per-port counter block the router samples into a
// snapshot: the firmware counters plus the pin-level word counts.
type PortCounters struct {
	Accepted     int64 `json:"accepted"`
	Dropped      int64 `json:"dropped"`
	Denied       int64 `json:"denied"`
	FragsSent    int64 `json:"frags_sent"`
	PktsIn       int64 `json:"pkts_in"`
	PktsOut      int64 `json:"pkts_out"`
	Reassembled  int64 `json:"reassembled"`
	Lookups      int64 `json:"lookups"`
	McastIn      int64 `json:"mcast_in"`
	McastCopies  int64 `json:"mcast_copies"`
	AbortDropped int64 `json:"abort_dropped"`
	Underruns    int64 `json:"underruns"`
	Reprobes     int64 `json:"reprobes"`
	Recovered    int64 `json:"recovered"`
	FlapDrops    int64 `json:"flap_drops"`
	// WordsIn / WordsOut are the words consumed from the input pins and
	// emitted on the output pins since construction.
	WordsIn  int64 `json:"words_in"`
	WordsOut int64 `json:"words_out"`
}

// MacroDisarm is one macro-step disarm cause and its declined-window
// count (see raw.MacroCause): the engine-side histogram explaining why
// the fast engine fell back to per-cycle stepping.
type MacroDisarm struct {
	Cause string `json:"cause"`
	Count int64  `json:"count"`
}

// PortSnap is one port's full telemetry: router counters plus the
// collector's scheduler-decision statistics.
type PortSnap struct {
	Port int `json:"port"`
	PortCounters
	// GrantedQuanta / DeniedQuanta count scheduler decisions observed at
	// quantum boundaries; WordsGranted sums the granted fragment words.
	GrantedQuanta int64 `json:"granted_quanta"`
	DeniedQuanta  int64 `json:"denied_quanta"`
	WordsGranted  int64 `json:"words_granted"`
	// LinkUtilization is the output-link occupancy gauge: words emitted
	// per elapsed cycle (1.0 = a word every cycle, the pin limit).
	LinkUtilization float64 `json:"link_utilization"`
	// TokenWait is the distribution of quanta a granted port waited
	// since its previous grant.
	TokenWait Histogram `json:"token_wait"`
}

// TileSnap is one tile's activity: the chip's cumulative run, blocked
// and idle cycle counts plus the collector's blocked-cycles-per-quantum
// distribution.
type TileSnap struct {
	Tile              int       `json:"tile"`
	Role              string    `json:"role"`
	Run               int64     `json:"run"`
	Blocked           int64     `json:"blocked"`
	Idle              int64     `json:"idle"`
	BlockedPerQuantum Histogram `json:"blocked_per_quantum"`
}

// EventRecord is a typed recovery event in export form (stable wire
// names from trace.EventKind).
type EventRecord struct {
	Cycle  int64  `json:"cycle"`
	Port   int    `json:"port"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// EventTotal is how many events of one kind were ever recorded.
type EventTotal struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// ServeSample is the serve daemon's plane: lifecycle, SLO state and the
// per-port admission ledger. Only a daemon's snapshot carries it.
type ServeSample struct {
	// State is the daemon lifecycle (0 serving, 1 draining, 2 drained,
	// 3 failed); Ready is the /readyz verdict.
	State       int     `json:"state"`
	Ready       bool    `json:"ready"`
	Slice       int64   `json:"slice"`
	SoakWindows int     `json:"soak_windows"`
	WindowGbps  float64 `json:"window_gbps"`
	Violations  int64   `json:"slo_violations"`

	Ports [NumPorts]ServePort `json:"ports"`
}

// ServePort is one edge port's admission ledger, in words.
type ServePort struct {
	Port           int   `json:"port"`
	Offered        int64 `json:"offered_words"`
	Admitted       int64 `json:"admitted_words"`
	Shed           int64 `json:"shed_words"`
	DrainDiscarded int64 `json:"drain_discarded_words"`
	Queued         int64 `json:"queue_words"`
}

// Snapshot is an immutable, versioned view of the telemetry plane. All
// fields are values (no pointers into live state): a snapshot taken at
// cycle C never changes as the simulation advances. Host-side knobs are
// deliberately absent, so a snapshot — and every export of it — is
// bit-for-bit identical on either engine, except for the macro and
// parking fields that ZeroHost clears.
type Snapshot struct {
	Schema        int     `json:"schema"`
	Cycle         int64   `json:"cycle"`
	ClockHz       float64 `json:"clock_hz"`
	Quanta        int64   `json:"quanta"`
	DeadPort      int     `json:"dead_port"`
	ProbationPort int     `json:"probation_port"`
	Failed        bool    `json:"failed"`
	FabricLost    int64   `json:"fabric_lost"`

	// MacroWindows/MacroCycles/MacroDisarms surface the fast engine's
	// macro-step engagement and ParkedTileCycles the tile steps its
	// parking skipped (all zero under the reference engine). They are
	// host-engine observability: ZeroHost clears them before cross-engine
	// comparisons.
	MacroWindows     int64         `json:"macro_windows"`
	MacroCycles      int64         `json:"macro_cycles"`
	MacroDisarms     []MacroDisarm `json:"macro_disarms,omitempty"`
	ParkedTileCycles int64         `json:"parked_tile_cycles"`

	Ports [NumPorts]PortSnap `json:"ports"`
	Tiles [NumTiles]TileSnap `json:"tiles"`

	// Recent is the per-quantum flight recorder, oldest first.
	Recent []QuantumRecord `json:"recent"`
	// Events is the typed-event flight recorder, oldest first.
	Events []EventRecord `json:"events"`
	// EventTotals counts every event the collector ever recorded, by
	// kind in trace.EventKind order (kinds never seen are omitted).
	EventTotals []EventTotal `json:"event_totals,omitempty"`

	// Serve carries the daemon's plane when a serve daemon took the
	// snapshot.
	Serve *ServeSample `json:"serve,omitempty"`
}

// ZeroHost clears the host-side fields — the fast engine's macro-step
// engagement (macro_windows, macro_cycles, macro_disarms) and parked
// tile steps (parked_tile_cycles), which differ between engines by
// design — so what remains is exactly the simulation-visible surface
// that equivalence suites compare.
func (s *Snapshot) ZeroHost() {
	s.MacroWindows, s.MacroCycles, s.MacroDisarms, s.ParkedTileCycles = 0, 0, nil, 0
}

// Snapshot returns the collector's share of a snapshot: the schema, the
// port and tile indices, the scheduler-decision plane, both flight
// recorders and the event totals. The router completes it with its
// counters. A nil collector yields the counters-only skeleton (empty
// rings, zero histograms), so the exporters work with the plane
// disabled.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{Schema: SchemaVersion}
	for p := range s.Ports {
		s.Ports[p].Port = p
	}
	for t := range s.Tiles {
		s.Tiles[t].Tile = t
	}
	if c == nil {
		return s
	}
	s.Quanta = c.quanta
	for p := range s.Ports {
		s.Ports[p].GrantedQuanta = c.grants[p]
		s.Ports[p].DeniedQuanta = c.denies[p]
		s.Ports[p].WordsGranted = c.wordsGranted[p]
		s.Ports[p].TokenWait = c.tokenWait[p]
	}
	for t := range s.Tiles {
		s.Tiles[t].BlockedPerQuantum = c.blocked[t]
	}
	s.Recent = c.RecentQuanta()
	for _, e := range c.RecentEvents() {
		s.Events = append(s.Events, EventRecord{
			Cycle: e.Cycle, Port: e.Port, Kind: e.Kind.String(), Detail: e.Detail,
		})
	}
	s.EventTotals = Totals(&c.evTotals)
	return s
}

// Totals lists the nonzero per-kind counts in trace.EventKind order.
func Totals(n *[trace.NumEventKinds]int64) []EventTotal {
	var out []EventTotal
	for k, c := range n {
		if c > 0 {
			out = append(out, EventTotal{Kind: trace.EventKind(k).String(), Count: c})
		}
	}
	return out
}
