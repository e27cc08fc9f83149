package cluster

import "testing"

// In-package healing-plane tests: computeRoutes properties (static
// agreement when healthy, loop-freedom under loss) and the egress
// duplicate-suppression window. The cluster_test suite covers the
// end-to-end behavior; these pin the route math itself.

func healSpecs() []Spec {
	return []Spec{
		Ring(2), Ring(3), Ring(4),
		Mesh(2, 2), Mesh(3, 1), Mesh(4, 4),
		FatTree(2), FatTree(4),
	}
}

func newHealFabric(t *testing.T, spec Spec) *Fabric {
	t.Helper()
	f, err := NewFabric(Config{Topology: spec, Heal: HealConfig{Enabled: true}})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return f
}

// TestComputeRoutesHealthyMatchesStatic pins the tie-break discipline:
// with nothing dead, the healed assignment must reproduce the static
// topology tables exactly on every spec kind, so arming -heal on a
// healthy fabric swaps zero tables.
func TestComputeRoutesHealthyMatchesStatic(t *testing.T) {
	for _, spec := range healSpecs() {
		f := newHealFabric(t, spec)
		ports, reach, isolated, comps := f.computeRoutes()
		if comps != 1 || len(isolated) != 0 {
			t.Errorf("%s: healthy topology reports comps=%d isolated=%v", spec, comps, isolated)
		}
		for a := range f.chips {
			for b := range f.chips {
				if !reach[a][b] {
					t.Errorf("%s: healthy c%d cannot reach c%d", spec, a, b)
				}
			}
		}
		for k := range f.chips {
			if want := f.staticPorts(k); !equalPorts(ports[k], want) {
				t.Errorf("%s: chip %d healed ports %v != static %v", spec, k, ports[k], want)
			}
		}
	}
}

// routeNextHop builds the (chip, port) -> neighbor map over live trunks.
func routeNextHop(f *Fabric) map[[2]int]int {
	next := make(map[[2]int]int)
	for ti := range f.trunks {
		tr := &f.trunks[ti]
		if tr.dead || f.chips[tr.A].dead || f.chips[tr.B].dead {
			continue
		}
		next[[2]int{tr.A, tr.APort}] = tr.B
		next[[2]int{tr.B, tr.BPort}] = tr.A
	}
	return next
}

// checkLoopFree walks every (live source, reachable external) pair's
// healed route hop by hop and fails on a loop, a dead-ended port, or a
// path longer than the chip count.
func checkLoopFree(t *testing.T, f *Fabric, spec Spec, label string) {
	t.Helper()
	ports, reach, _, _ := f.computeRoutes()
	next := routeNextHop(f)
	n := spec.NumChips()
	for e := 0; e < spec.Externals(); e++ {
		dc, _ := spec.ExtPort(e)
		if f.chips[dc].dead {
			continue
		}
		for src := 0; src < n; src++ {
			if f.chips[src].dead || !reach[src][dc] {
				continue
			}
			cur := src
			for hop := 0; cur != dc; hop++ {
				if hop > n {
					t.Fatalf("%s %s: route for ext %d loops from c%d", spec, label, e, src)
				}
				nx, ok := next[[2]int{cur, ports[cur][e]}]
				if !ok {
					t.Fatalf("%s %s: c%d routes ext %d out port %d with no live trunk",
						spec, label, cur, e, ports[cur][e])
				}
				cur = nx
			}
		}
	}
}

// TestComputeRoutesLoopFreeUnderLoss kills each single chip, then each
// single trunk, on every spec kind and checks that every surviving
// reachable route is loop-free and uses only live trunks.
func TestComputeRoutesLoopFreeUnderLoss(t *testing.T) {
	for _, spec := range healSpecs() {
		f := newHealFabric(t, spec)
		for victim := range f.chips {
			f.chips[victim].dead = true
			checkLoopFree(t, f, spec, "chip-loss")
			f.chips[victim].dead = false
		}
		for ti := range f.trunks {
			f.trunks[ti].dead = true
			checkLoopFree(t, f, spec, "trunk-loss")
			f.trunks[ti].dead = false
		}
	}
}

// TestPartitionRisk pins which specs self-report partition risk: the
// topologies where one chip loss disconnects the survivors.
func TestPartitionRisk(t *testing.T) {
	risky := []Spec{Ring(2), Mesh(3, 1), Mesh(1, 4)}
	for _, spec := range risky {
		if spec.PartitionRisk() == "" {
			t.Errorf("%s: want partition risk, got none", spec)
		}
	}
	safe := []Spec{Ring(3), Ring(4), Mesh(2, 2), Mesh(4, 4), FatTree(2), FatTree(4)}
	for _, spec := range safe {
		if risk := spec.PartitionRisk(); risk != "" {
			t.Errorf("%s: unexpected partition risk %q", spec, risk)
		}
	}
}

// TestEgressFlowDupWindow exercises the sliding dup-suppression bitmap:
// in-order, duplicate, reordered-within-window, window-slide reuse, and
// beyond-window cases.
func TestEgressFlowDupWindow(t *testing.T) {
	var fl egressFlow
	for seq := uint16(0); seq < 8; seq++ {
		if fl.dup(seq) {
			t.Fatalf("fresh seq %d flagged duplicate", seq)
		}
	}
	if !fl.dup(5) {
		t.Fatal("replayed seq 5 not flagged duplicate")
	}
	// Skip ahead within the window, then fill the reorder gap.
	if fl.dup(100) {
		t.Fatal("seq 100 flagged duplicate")
	}
	if fl.dup(50) {
		t.Fatal("reordered seq 50 flagged duplicate")
	}
	if !fl.dup(50) {
		t.Fatal("replayed seq 50 not flagged duplicate")
	}
	// Slide the window a full revolution: the old slot for 100 must be
	// cleared so the new sequence landing on the same bit is accepted.
	if fl.dup(100 + dupWindow) {
		t.Fatal("window slide: new seq on reused slot flagged duplicate")
	}
	// Too old to tell from a duplicate: suppressed.
	if !fl.dup(100) {
		t.Fatal("beyond-window stale seq not suppressed")
	}
}

// TestBackoffDelayBounded pins the retransmit delay envelope: monotone
// cap at shift 4 plus bounded jitter, never negative.
func TestBackoffDelayBounded(t *testing.T) {
	f := &Fabric{heal: HealConfig{Enabled: true, Seed: 7}}
	for attempt := 0; attempt < 12; attempt++ {
		for seq := int64(1); seq < 64; seq += 7 {
			d := f.backoffDelay(attempt, seq)
			shift := attempt
			if shift > 4 {
				shift = 4
			}
			base := int64(256) << shift
			if d < base || d >= base+64 {
				t.Fatalf("attempt %d seq %d: delay %d outside [%d,%d)", attempt, seq, d, base, base+64)
			}
		}
	}
}
