package router_test

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestTelemetrySnapshotFill: the router completes the collector's share
// of a snapshot with its own counters — per-port stats, the pin word
// counts and the link-utilization gauge derived from them, and each
// tile's role and activity.
func TestTelemetrySnapshotFill(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r := mustNew(t, cfg)
	id := uint16(0)
	for c := 0; c < 20000; c += 500 {
		feedSaturated(r, func(p int) ip.Packet {
			id++
			return ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr((p+2)%4, uint32(id)), 64, 512, id)
		})
		r.Run(500)
	}
	s, st := r.TelemetrySnapshot(), r.Stats()
	if s.Schema != telemetry.SchemaVersion || s.Cycle != r.Cycle() || s.ClockHz != cfg.ClockHz || s.Quanta == 0 {
		t.Fatalf("snapshot meta: schema %d cycle %d clock %v quanta %d", s.Schema, s.Cycle, s.ClockHz, s.Quanta)
	}
	for p, ps := range s.Ports {
		if ps.Port != p || ps.PktsOut != st.PktsOut[p] || ps.Accepted != st.Accepted[p] || ps.PktsOut == 0 ||
			ps.WordsOut != r.OutputWords(p) || ps.LinkUtilization != float64(ps.WordsOut)/float64(s.Cycle) {
			t.Errorf("port %d: %+v, stats pkts_out %d accepted %d, output words %d",
				p, ps.PortCounters, st.PktsOut[p], st.Accepted[p], r.OutputWords(p))
		}
	}
	roles := map[string]int{}
	for i, ts := range s.Tiles {
		roles[ts.Role]++
		if ts.Tile != i || ts.Run+ts.Blocked+ts.Idle != s.Cycle {
			t.Errorf("tile %d (%s): run %d + blocked %d + idle %d != cycle %d", ts.Tile, ts.Role, ts.Run, ts.Blocked, ts.Idle, s.Cycle)
		}
	}
	for _, role := range []string{"ingress", "lookup", "xbar", "egress"} {
		if roles[role] != 4 {
			t.Errorf("%d %s tiles, want 4", roles[role], role)
		}
	}
}
