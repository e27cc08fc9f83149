package router

import (
	"repro/internal/raw"
	"repro/internal/telemetry"
)

// Telemetry-plane wiring. The collector (cfg.Metrics) is fed entirely
// from the router's step hook (Router.Tick) on the simulation's main
// goroutine: the report-port crossbar captures each quantum's scheduler
// decision at the boundary (xbarFW.captureQuantum), and sampleTelemetry
// hands it to the collector together with cumulative drop and
// blocked-cycle counters. Everything the collector sees is simulated
// state, bit-for-bit identical on either engine, so exports are too.
//
// Sampling is quantum-granular by construction: the boundary commits
// inside a crossbar processor op, so the fast engine can never cover a
// boundary cycle with a macro window (the tile is busy that cycle), and
// the hook's counter comparison observes every boundary at the exact
// cycle it commits — on either engine.

// tileRoles orders one port's tiles for snapshot role labels.
var tileRoles = [4]string{"ingress", "lookup", "xbar", "egress"}

// portTiles returns port p's tile numbers in tileRoles order.
func portTiles(p int) [4]int {
	pt := Layout[p]
	return [4]int{pt.Ingress, pt.Lookup, pt.Crossbar, pt.Egress}
}

// sampleTelemetry runs once per cycle from the hook when cfg.Metrics is
// armed. The cheap path — no quantum boundary since the last call — is
// one counter comparison; the sample itself is amortized once per
// quantum (hundreds of cycles).
func (r *Router) sampleTelemetry(cycle int64) {
	x := r.xbars[r.reportPort]
	q := x.quantum
	if q == r.lastSampledQ {
		return
	}
	r.lastSampledQ = q

	var s telemetry.QuantumSample
	s.Quantum = q
	s.Cycle = cycle
	s.Token = x.lastToken
	s.ReqMask = x.lastReq
	s.GrantMask = x.lastGrant
	s.FragWords = x.lastWords
	for p := 0; p < 4; p++ {
		// Drops charged to the port so far: validation failures plus
		// robustness aborts. The collector turns these into per-quantum
		// deltas for the flight recorder.
		s.Dropped[p] = r.stats.Dropped[p] + r.stats.AbortDropped[p]
	}
	for t := 0; t < telemetry.NumTiles; t++ {
		sc := r.Chip.Tile(t).Exec().StateCounts()
		s.TileBlocked[t] = sc[raw.StateStallSend] + sc[raw.StateStallRecv] + sc[raw.StateStallCache]
	}
	r.cfg.Metrics.RecordQuantum(s)
}

// TelemetrySnapshot assembles the unified telemetry snapshot: the
// collector's quantum plane completed with the router's counters and
// per-tile activity. With cfg.Metrics nil it still returns a
// counters-only snapshot (empty rings, zero histograms), so every
// exporter works with the plane disabled.
func (r *Router) TelemetrySnapshot() telemetry.Snapshot {
	s := r.cfg.Metrics.Snapshot()
	s.Cycle = r.Chip.Cycle()
	s.ClockHz = r.cfg.ClockHz
	s.DeadPort = r.deadPort
	s.ProbationPort = r.probationPort
	s.Failed = r.failed
	s.FabricLost = r.stats.FabricLost
	// Engine observability (schema v3, parking v5): the fast engine's
	// macro-step engagement, the per-cause disarm histogram, in
	// raw.MacroCauses order for a stable export series, and the tile
	// steps parking skipped. Zero under the reference engine; cross-engine
	// equivalence comparisons clear them (Snapshot.ZeroHost).
	s.MacroWindows, s.MacroCycles = r.Chip.MacroStats()
	s.ParkedTileCycles = r.Chip.ParkedTileCycles()
	disarms := r.Chip.MacroDisarms()
	s.MacroDisarms = make([]telemetry.MacroDisarm, 0, len(disarms))
	for _, cause := range raw.MacroCauses() {
		s.MacroDisarms = append(s.MacroDisarms, telemetry.MacroDisarm{
			Cause: cause.String(), Count: disarms[cause],
		})
	}
	st := &r.stats
	for p := 0; p < 4; p++ {
		ps := &s.Ports[p]
		ps.PortCounters = telemetry.PortCounters{
			Accepted: st.Accepted[p], Dropped: st.Dropped[p], Denied: st.Denied[p],
			FragsSent: st.FragsSent[p], PktsIn: st.PktsIn[p], PktsOut: st.PktsOut[p],
			Reassembled: st.Reassembled[p], Lookups: st.Lookups[p],
			McastIn: st.McastIn[p], McastCopies: st.McastCopies[p],
			AbortDropped: st.AbortDropped[p], Underruns: st.Underruns[p],
			Reprobes: st.Reprobes[p], Recovered: st.Recovered[p], FlapDrops: st.FlapDrops[p],
			WordsIn: r.ins[p].Consumed(), WordsOut: r.outs[p].Count(),
		}
		if s.Cycle > 0 {
			ps.LinkUtilization = float64(ps.WordsOut) / float64(s.Cycle)
		}
		for i, tile := range portTiles(p) {
			sc := r.Chip.Tile(tile).Exec().StateCounts()
			ts := &s.Tiles[tile]
			ts.Role = tileRoles[i]
			ts.Run = sc[raw.StateRun]
			ts.Blocked = sc[raw.StateStallSend] + sc[raw.StateStallRecv] + sc[raw.StateStallCache]
			ts.Idle = sc[raw.StateIdle]
		}
	}
	return s
}
