package router_test

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// runUntil steps the router's chip until cond holds or budget cycles
// pass; cond reads firmware state between cycles.
func runUntil(r *router.Router, budget int64, cond func() bool) bool {
	return r.Chip.RunUntil(cond, budget)
}

// TestRestoreValidation: Restore rejects nonsense states.
func TestRestoreValidation(t *testing.T) {
	r := mustNew(t, router.DefaultConfig())
	if err := r.Restore(0); err == nil {
		t.Fatal("Restore on a healthy router accepted")
	}
	if err := r.Degrade(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(1); err == nil {
		t.Fatal("Restore of a live port accepted")
	}
	if err := r.Restore(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(2); err == nil {
		t.Fatal("second Restore while draining accepted")
	}
	if !r.Restoring() {
		t.Fatal("Restoring() false during drain")
	}
	if err := r.Degrade(0); err == nil {
		t.Fatal("Degrade accepted while degraded and restoring")
	}
	if !runUntil(r, 40000, func() bool { return r.DeadPort() < 0 }) {
		t.Fatalf("idle restore never completed; restoring=%v", r.Restoring())
	}
}

// TestDegradeRestoreCycleAllPorts drives repeated degrade→restore cycles
// across every port under load: after each re-admission the restored
// port must carry traffic again in both directions, every delivered
// packet must be intact, and packet conservation must hold exactly
// across the whole history.
func TestDegradeRestoreCycleAllPorts(t *testing.T) {
	cfg := router.DefaultConfig()
	ev := &trace.EventLog{}
	cfg.Events = ev
	r := mustNew(t, cfg)

	rng := traffic.NewRNG(7)
	id := uint16(0)
	sent := map[uint16]ip.Packet{}
	gen := func(p int) ip.Packet {
		id++
		size := []int{64, 128, 256, 512}[rng.Intn(4)]
		pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(rng.Intn(4), uint32(id)), 64, size, id)
		sent[id] = pkt
		return pkt
	}

	for _, dead := range []int{1, 3, 0, 2} {
		for c := 0; c < 2000; c += 200 {
			feedSaturated(r, gen)
			r.Run(200)
		}
		if err := r.Degrade(dead); err != nil {
			t.Fatalf("Degrade(%d): %v", dead, err)
		}
		for c := 0; c < 4000; c += 200 {
			feedSaturated(r, gen)
			r.Run(200)
		}
		if err := r.Restore(dead); err != nil {
			t.Fatalf("Restore(%d): %v", dead, err)
		}
		if !runUntil(r, 400000, func() bool { return r.DeadPort() < 0 && !r.Restoring() }) {
			t.Fatalf("restore of port %d never completed", dead)
		}
		if !runUntil(r, 100000, func() bool { return r.ProbationPort() < 0 }) {
			t.Fatalf("port %d stuck in probation", dead)
		}
		if r.Failed() {
			t.Fatalf("router fail-stopped during cycle on port %d", dead)
		}

		// The re-admitted port must source and sink traffic again.
		inBefore, outBefore := r.Stats().PktsIn[dead], r.Stats().PktsOut[dead]
		for c := 0; c < 20000; c += 200 {
			feedSaturated(r, gen)
			r.Run(200)
		}
		if r.Stats().PktsIn[dead] <= inBefore {
			t.Fatalf("port %d sourced no packets after restore", dead)
		}
		if r.Stats().PktsOut[dead] <= outBefore {
			t.Fatalf("port %d delivered no packets after restore", dead)
		}
	}

	// Let the fabric drain dry, then check conservation and integrity.
	r.Run(200000)
	var in, out int64
	for p := 0; p < 4; p++ {
		in += r.Stats().PktsIn[p]
		out += r.Stats().PktsOut[p]
	}
	if in != out+r.Stats().FabricLost {
		t.Fatalf("conservation: PktsIn %d != PktsOut %d + FabricLost %d",
			in, out, r.Stats().FabricLost)
	}
	var delivered int64
	for p := 0; p < 4; p++ {
		pkts, err := r.DrainOutput(p)
		if err != nil {
			t.Fatalf("output %d corrupt: %v", p, err)
		}
		for _, got := range pkts {
			want, ok := sent[got.Header.ID]
			if !ok {
				t.Fatalf("output %d delivered unknown packet id %d", p, got.Header.ID)
			}
			for i := range want.Payload {
				if got.Payload[i] != want.Payload[i] {
					t.Fatalf("id %d payload word %d corrupted", got.Header.ID, i)
				}
			}
			delivered++
		}
	}
	// A manual mid-load Degrade can land in the few-cycle window after a
	// packet's last word reached the pins but before the firmware's
	// completion callbacks ran: the reset drops the pending PktsIn/PktsOut
	// increments, so the packet escaped intact but is invisible to every
	// counter. At most one packet per egress port can sit in that window
	// per degrade, so the counters are conservative within that bound —
	// never lossy, and never double-counted.
	const degrades = 4
	if delivered < out || delivered > out+4*degrades {
		t.Fatalf("drained %d packets outside [PktsOut %d, PktsOut+%d]",
			delivered, out, 4*degrades)
	}

	// The event log must show each port walking the recovery state
	// machine: restore-drain → readmit → live.
	log := ev.String()
	for _, want := range []string{"restore-drain", "readmit", "live"} {
		if !strings.Contains(log, want) {
			t.Fatalf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestAutoRestoreAfterThaw is the headline self-healing scenario: a
// crossbar tile freezes under load, the watchdog degrades the fabric,
// the tile thaws (a transient freeze, not a crash), the watchdog notices
// the parked processor's heartbeat moving again and re-admits the port
// automatically — no operator action anywhere.
func TestAutoRestoreAfterThaw(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Watchdog = true
	cfg.WatchdogCycles = 4000
	cfg.AutoRestore = true
	ev := &trace.EventLog{}
	cfg.Events = ev
	r := mustNew(t, cfg)

	// Port 1's crossbar is tile 6; freeze it at 3000 for 40000 cycles.
	inj := fault.NewInjector(fault.MustParse("freeze@3000+40000:t6"), 16)
	r.Chip.InstallFaults(inj)

	rng := traffic.NewRNG(41)
	id := uint16(0)
	sent := map[uint16]ip.Packet{}
	gen := func(p int) ip.Packet {
		id++
		size := []int{64, 128, 256, 512}[rng.Intn(4)]
		pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(rng.Intn(4), uint32(id)), 64, size, id)
		sent[id] = pkt
		return pkt
	}

	for c := 0; c < 40000 && r.DeadPort() < 0; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	if r.DeadPort() != 1 || r.Failed() {
		t.Fatalf("watchdog: dead=%d failed=%v, want dead=1", r.DeadPort(), r.Failed())
	}

	// Keep the degraded fabric loaded; the tile thaws at cycle 43000 and
	// the watchdog should notice, drain, and re-admit on its own.
	if !runUntil(r, 600000, func() bool { return r.DeadPort() < 0 && r.ProbationPort() < 0 }) {
		t.Fatalf("auto-restore never completed: dead=%d restoring=%v probation=%d failed=%v",
			r.DeadPort(), r.Restoring(), r.ProbationPort(), r.Failed())
	}
	if r.Failed() {
		t.Fatal("router fail-stopped instead of auto-restoring")
	}

	// Full service on the restored port, both directions.
	inBefore, outBefore := r.Stats().PktsIn[1], r.Stats().PktsOut[1]
	for c := 0; c < 20000; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	r.Run(200000)
	if r.Stats().PktsIn[1] <= inBefore || r.Stats().PktsOut[1] <= outBefore {
		t.Fatalf("port 1 not back in service: in %d->%d out %d->%d",
			inBefore, r.Stats().PktsIn[1], outBefore, r.Stats().PktsOut[1])
	}
	if r.Failed() || r.DeadPort() >= 0 {
		t.Fatalf("fabric unhealthy after restore: dead=%d failed=%v", r.DeadPort(), r.Failed())
	}

	var in, out int64
	for p := 0; p < 4; p++ {
		in += r.Stats().PktsIn[p]
		out += r.Stats().PktsOut[p]
	}
	if in != out+r.Stats().FabricLost {
		t.Fatalf("conservation: PktsIn %d != PktsOut %d + FabricLost %d",
			in, out, r.Stats().FabricLost)
	}
	for p := 0; p < 4; p++ {
		if _, err := r.DrainOutput(p); err != nil {
			t.Fatalf("output %d corrupt after auto-restore: %v", p, err)
		}
	}
	log := ev.String()
	for _, want := range []string{"degrade", "restore-drain", "readmit", "live"} {
		if !strings.Contains(log, want) {
			t.Fatalf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestRestoredThroughputMatchesHealthy: after a full degrade→restore
// cycle the fabric must forward at its healthy rate — within 1% of a
// never-degraded router over the same saturated measurement window.
func TestRestoredThroughputMatchesHealthy(t *testing.T) {
	const warmup, window = 20000, 100000

	measure := func(r *router.Router) int64 {
		rng := traffic.NewRNG(1234)
		id := uint16(0)
		gen := func(p int) ip.Packet {
			id++
			return ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(rng.Intn(4), uint32(id)), 64, 256, id)
		}
		for c := 0; c < warmup; c += 200 {
			feedSaturated(r, gen)
			r.Run(200)
		}
		var start int64
		for p := 0; p < 4; p++ {
			start += r.OutputWords(p)
		}
		for c := 0; c < window; c += 200 {
			feedSaturated(r, gen)
			r.Run(200)
		}
		var end int64
		for p := 0; p < 4; p++ {
			end += r.OutputWords(p)
		}
		return end - start
	}

	healthy := mustNew(t, router.DefaultConfig())
	base := measure(healthy)

	restored := mustNew(t, router.DefaultConfig())
	if err := restored.Degrade(2); err != nil {
		t.Fatal(err)
	}
	restored.Run(10000)
	if err := restored.Restore(2); err != nil {
		t.Fatal(err)
	}
	if !runUntil(restored, 100000, func() bool {
		return restored.DeadPort() < 0 && restored.ProbationPort() < 0
	}) {
		t.Fatal("restore never completed")
	}
	got := measure(restored)

	diff := got - base
	if diff < 0 {
		diff = -diff
	}
	if base == 0 || float64(diff) > 0.01*float64(base) {
		t.Fatalf("restored throughput %d words vs healthy %d (|diff| %d > 1%%)",
			got, base, diff)
	}
}

// TestWatchdogAmbiguityFailStop: two crossbar tiles wedged at once
// cannot be masked as a single hole; the watchdog must fail-stop, record
// exactly one fail-stop event in the event log and the telemetry export,
// and a failed router must refuse both Degrade and Restore.
func TestWatchdogAmbiguityFailStop(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Watchdog = true
	cfg.WatchdogCycles = 4000
	ev := &trace.EventLog{}
	cfg.Events = ev
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r := mustNew(t, cfg)

	// Ports 0 and 1: crossbar tiles 5 and 6.
	inj := fault.NewInjector(fault.MustParse("crash@3000:t5;crash@3000:t6"), 16)
	r.Chip.InstallFaults(inj)

	if !runUntil(r, 80000, r.Failed) {
		t.Fatalf("watchdog never fail-stopped: dead=%d", r.DeadPort())
	}
	if r.DeadPort() >= 0 {
		t.Fatalf("ambiguous wedge was attributed to port %d", r.DeadPort())
	}
	r.Run(20000) // a failed router stays failed and says so once
	stops := 0
	for _, e := range ev.Events {
		if e.Kind == trace.EvFailStop {
			stops++
		}
	}
	if stops != 1 {
		t.Fatalf("event log holds %d fail-stop events, want 1:\n%s", stops, ev)
	}
	snap := r.TelemetrySnapshot()
	prom, err := snap.Encode("prom")
	if err != nil {
		t.Fatal(err)
	}
	if want := `raw_router_recovery_events_total{kind="fail-stop"} 1` + "\n"; !strings.Contains(string(prom), want) {
		t.Fatalf("telemetry export lacks %q", want)
	}
	if err := r.Degrade(0); err == nil {
		t.Fatal("Degrade accepted after fail-stop")
	}
	if err := r.Restore(0); err == nil {
		t.Fatal("Restore accepted after fail-stop")
	}
}

// TestLineFlapReprobe: a line that stops delivering words mid-packet is
// declared down after the underrun strikes, probed on the seeded backoff
// schedule, and comes back up when words resume — discarding exactly the
// cut-off packet's residue to resynchronize at a packet boundary.
func TestLineFlapReprobe(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.UnderrunQuanta = 2
	cfg.ReprobeQuanta = 4
	cfg.ReprobeSeed = 99
	ev := &trace.EventLog{}
	cfg.Events = ev
	r := mustNew(t, cfg)

	// Push only the first 10 words of a 64-word packet: the ingress
	// acquires the header, claims the full length, and starves.
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(2, 7), 64, 256, 5)
	words := pkt.Words()
	for _, w := range words[:10] {
		r.InputPins(0).Push(raw.Word(w))
	}
	if !runUntil(r, 200000, func() bool { return r.LineDown(0) }) {
		t.Fatalf("line never declared down; stats %+v", r.Stats())
	}
	if r.Stats().AbortDropped[0] != 1 {
		t.Fatalf("AbortDropped[0] = %d, want 1", r.Stats().AbortDropped[0])
	}

	// Silent probes back off but keep coming.
	r.Run(400000)
	if r.Stats().Reprobes[0] == 0 {
		t.Fatal("no silent reprobes on a down line")
	}
	if !r.LineDown(0) {
		t.Fatal("silent probes brought a dead line up")
	}

	// The line resumes: complete the cut-off packet's words (they are the
	// residue the resync must discard), then send a fresh packet.
	for _, w := range words[10:] {
		r.InputPins(0).Push(raw.Word(w))
	}
	fresh := ip.NewPacket(traffic.PortAddr(0, 2), traffic.PortAddr(2, 7), 64, 256, 6)
	r.OfferPacket(0, &fresh)

	if !runUntil(r, 600000, func() bool { return r.Stats().PktsOut[2] >= 1 }) {
		t.Fatalf("fresh packet never delivered after flap; stats %+v", r.Stats())
	}
	if r.LineDown(0) {
		t.Fatal("line still down after recovery")
	}
	if r.Stats().Recovered[0] != 1 {
		t.Fatalf("Recovered[0] = %d, want 1", r.Stats().Recovered[0])
	}
	// 64-word packet, 10 words arrived before the cut (5 header consumed
	// at acquire + 5 payload drained during the strikes): 54 residue words.
	if r.Stats().FlapDrops[0] != int64(len(words)-10) {
		t.Fatalf("FlapDrops[0] = %d, want %d", r.Stats().FlapDrops[0], len(words)-10)
	}
	out, err := r.DrainOutput(2)
	if err != nil || len(out) != 1 || out[0].Header.ID != 6 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	for i, w := range fresh.Payload {
		if out[0].Payload[i] != w {
			t.Fatalf("payload word %d corrupted", i)
		}
	}
	log := ev.String()
	if !strings.Contains(log, "line-down") || !strings.Contains(log, "line-up") {
		t.Fatalf("event log missing line transitions:\n%s", log)
	}
}

// TestReprobeForcedControl: a scheduled reprobe control fires the probe
// immediately, recovering a line that flapped back up long before the
// backoff schedule would have looked — the "raised then cleared" case.
func TestReprobeForcedControl(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.UnderrunQuanta = 2
	cfg.ReprobeQuanta = 100000 // backoff so long only the control can probe
	r := mustNew(t, cfg)

	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(3, 7), 64, 256, 9)
	words := pkt.Words()
	for _, w := range words[:10] {
		r.InputPins(0).Push(raw.Word(w))
	}
	if !runUntil(r, 200000, func() bool { return r.LineDown(0) }) {
		t.Fatal("line never declared down")
	}

	// The line comes back within the same quantum the probe would find it:
	// push the residue plus a fresh packet, then force the probe.
	for _, w := range words[10:] {
		r.InputPins(0).Push(raw.Word(w))
	}
	fresh := ip.NewPacket(traffic.PortAddr(0, 2), traffic.PortAddr(3, 7), 64, 256, 10)
	r.OfferPacket(0, &fresh)
	r.ScheduleReprobe(r.Cycle()+1, 0)

	if !runUntil(r, 200000, func() bool { return r.Stats().PktsOut[3] >= 1 }) {
		t.Fatalf("forced reprobe did not recover the line; stats %+v", r.Stats())
	}
	if r.Stats().Reprobes[0] != 0 {
		t.Fatalf("Reprobes[0] = %d, want 0 (control fired before any scheduled probe)", r.Stats().Reprobes[0])
	}
	if r.Stats().Recovered[0] != 1 {
		t.Fatalf("Recovered[0] = %d, want 1", r.Stats().Recovered[0])
	}
}

// TestLatchedLineDownUnchanged: with ReprobeQuanta zero the pre-reprobe
// behavior is preserved bit-for-bit — the line latches down forever and
// the pending drain is zeroed.
func TestLatchedLineDownUnchanged(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.UnderrunQuanta = 2
	r := mustNew(t, cfg)

	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(2, 7), 64, 256, 5)
	words := pkt.Words()
	for _, w := range words[:10] {
		r.InputPins(0).Push(raw.Word(w))
	}
	if !runUntil(r, 200000, func() bool { return r.LineDown(0) }) {
		t.Fatal("line never declared down")
	}
	if r.PendingDrainWords(0) != 0 {
		t.Fatalf("latched mode kept pendingDrain=%d, want 0", r.PendingDrainWords(0))
	}
	for _, w := range words[10:] {
		r.InputPins(0).Push(raw.Word(w))
	}
	r.Run(400000)
	if !r.LineDown(0) || r.Stats().Recovered[0] != 0 || r.Stats().Reprobes[0] != 0 {
		t.Fatalf("latched line reprobed: down=%v recovered=%d reprobes=%d",
			r.LineDown(0), r.Stats().Recovered[0], r.Stats().Reprobes[0])
	}
}

// TestScheduledRestoreControl: a restore@ control from a fault schedule
// re-admits a degraded port deterministically, with no operator call.
func TestScheduledRestoreControl(t *testing.T) {
	r := mustNew(t, router.DefaultConfig())
	if err := r.Degrade(3); err != nil {
		t.Fatal(err)
	}
	s := fault.MustParse("restore@5000:p3")
	r.ScheduleControls(s)
	if !runUntil(r, 100000, func() bool { return r.DeadPort() < 0 && r.ProbationPort() < 0 }) {
		t.Fatalf("scheduled restore never completed: dead=%d restoring=%v",
			r.DeadPort(), r.Restoring())
	}
	pkt := ip.NewPacket(traffic.PortAddr(3, 1), traffic.PortAddr(0, 7), 64, 256, 77)
	r.OfferPacket(3, &pkt)
	if !runUntil(r, 40000, func() bool { return r.Stats().PktsOut[0] >= 1 }) {
		t.Fatalf("restored port carried no traffic; stats %+v", r.Stats())
	}
}
