package telemetry

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

// TileMeta is the per-tile activity block the router samples from the
// chip's cumulative state counters.
type TileMeta struct {
	Tile    int    `json:"tile"`
	Role    string `json:"role"`
	Run     int64  `json:"run"`
	Blocked int64  `json:"blocked"`
	Idle    int64  `json:"idle"`
}

// MacroDisarm is one macro-step disarm cause and its declined-window
// count (see raw.MacroCause): the engine-side histogram explaining why
// the fast engine fell back to per-cycle stepping.
type MacroDisarm struct {
	Cause string `json:"cause"`
	Count int64  `json:"count"`
}

// Meta is everything the router contributes to a snapshot (the collector
// contributes the quantum plane). Host-side knobs are deliberately
// absent: a snapshot — and therefore every export — is bit-for-bit
// identical on either engine. The macro fields are the one deliberate
// exception: they describe the host engine's macro-step engagement (always zero under the reference engine), so equivalence
// suites normalize them out before comparing exports across engines.
type Meta struct {
	Cycle         int64
	ClockHz       float64
	DeadPort      int
	ProbationPort int
	Failed        bool
	FabricLost    int64
	MacroWindows  int64
	MacroCycles   int64
	MacroDisarms  []MacroDisarm
	Ports         [NumPorts]PortCounters
	Tiles         [NumTiles]TileMeta
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

// TileSnap is one tile's activity counters plus the blocked-cycles-per-
// quantum distribution.
type TileSnap struct {
	TileMeta
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

// Snapshot is an immutable, versioned view of the telemetry plane. All
// fields are values (no pointers into live state): a snapshot taken at
// cycle C never changes as the simulation advances.
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
	// macro-step engagement (zero under the reference engine). They are
	// host-engine observability: cross-engine equivalence comparisons
	// normalize them to zero/nil before encoding.
	MacroWindows int64         `json:"macro_windows"`
	MacroCycles  int64         `json:"macro_cycles"`
	MacroDisarms []MacroDisarm `json:"macro_disarms,omitempty"`

	Ports [NumPorts]PortSnap `json:"ports"`
	Tiles [NumTiles]TileSnap `json:"tiles"`

	// Recent is the per-quantum flight recorder, oldest first.
	Recent []QuantumRecord `json:"recent"`
	// Events is the typed-event flight recorder, oldest first.
	Events []EventRecord `json:"events"`
}

// Snapshot assembles an immutable snapshot from the router's meta block
// and the collector's accumulated plane. A nil collector yields a
// counters-only snapshot (empty rings, zero histograms) so the exporters
// work even with the plane disabled.
func (c *Collector) Snapshot(m Meta) Snapshot {
	s := Snapshot{
		Schema:        SchemaVersion,
		Cycle:         m.Cycle,
		ClockHz:       m.ClockHz,
		DeadPort:      m.DeadPort,
		ProbationPort: m.ProbationPort,
		Failed:        m.Failed,
		FabricLost:    m.FabricLost,
		MacroWindows:  m.MacroWindows,
		MacroCycles:   m.MacroCycles,
		MacroDisarms:  m.MacroDisarms,
	}
	for p := 0; p < NumPorts; p++ {
		s.Ports[p] = PortSnap{Port: p, PortCounters: m.Ports[p]}
		if m.Cycle > 0 {
			s.Ports[p].LinkUtilization = float64(m.Ports[p].WordsOut) / float64(m.Cycle)
		}
	}
	for t := 0; t < NumTiles; t++ {
		s.Tiles[t] = TileSnap{TileMeta: m.Tiles[t]}
	}
	if c == nil {
		return s
	}
	s.Quanta = c.quanta
	for p := 0; p < NumPorts; p++ {
		s.Ports[p].GrantedQuanta = c.grants[p]
		s.Ports[p].DeniedQuanta = c.denies[p]
		s.Ports[p].WordsGranted = c.wordsGranted[p]
		s.Ports[p].TokenWait = c.tokenWait[p]
	}
	for t := 0; t < NumTiles; t++ {
		s.Tiles[t].BlockedPerQuantum = c.blocked[t]
	}
	s.Recent = c.RecentQuanta()
	for _, e := range c.RecentEvents() {
		s.Events = append(s.Events, EventRecord{
			Cycle: e.Cycle, Port: e.Port, Kind: e.Kind.String(), Detail: e.Detail,
		})
	}
	return s
}
