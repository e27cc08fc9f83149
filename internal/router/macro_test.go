package router_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Router-level macro-engagement equivalence. The fault-layer suites pin
// the two engines against each other across chaos and soak schedules;
// these tests pin the headline claim of the compiled firmware plane:
// macro windows ENGAGE on the full router under load (windows > 0, not
// merely "fast didn't diverge while falling back to per-cycle"), and
// with them engaged every simulation-visible output — counters, event
// log, telemetry exports, delivered payload bytes — is bit-identical to
// the reference interpreter.

// macroRun is one engine's observation of the shared load schedule.
type macroRun struct {
	stats   router.StatsSnapshot // macro fields zeroed (host-engine observability)
	events  string
	exports map[string][]byte // normalized telemetry exports by format
	digest  [32]byte          // delivered packets: port, id, payload words
	windows int64
	cycles  int64
}

// normalizeStats strips the host-engine macro observability from a
// snapshot so the remainder is exactly the simulation-visible surface.
func normalizeStats(s router.StatsSnapshot) router.StatsSnapshot {
	s.MacroWindows, s.MacroCycles = 0, 0
	s.MacroDisarms = [raw.NumMacroCauses]int64{}
	return s
}

// runMacroLoad drives a saturated 1,024-byte permutation — the paper's
// headline workload — for 20k cycles with events and telemetry armed,
// drains the fabric dry, and captures everything an outside observer
// can see.
func runMacroLoad(t *testing.T, eng raw.Engine) macroRun {
	t.Helper()
	cfg := router.DefaultConfig()
	cfg.Engine = eng
	cfg.Events = &trace.EventLog{}
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r := mustNew(t, cfg)

	id := uint16(0)
	gen := func(p int) ip.Packet {
		id++
		return ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr((p+1)%4, uint32(id)), 64, 1024, id)
	}
	for c := 0; c < 20000; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	r.Run(60000) // drain dry

	var run macroRun
	run.windows, run.cycles = r.Chip.MacroStats()
	run.stats = normalizeStats(r.Stats())
	run.events = cfg.Events.String()

	snap := r.TelemetrySnapshot()
	snap.ZeroHost()
	run.exports = map[string][]byte{}
	for _, format := range telemetry.Formats() {
		enc, err := snap.Encode(format)
		if err != nil {
			t.Fatalf("encode %s: %v", format, err)
		}
		run.exports[format] = enc
	}

	h := sha256.New()
	var word [8]byte
	for p := 0; p < 4; p++ {
		pkts, err := r.DrainOutput(p)
		if err != nil {
			t.Fatalf("output %d corrupt: %v", p, err)
		}
		for _, pkt := range pkts {
			binary.LittleEndian.PutUint64(word[:], uint64(p)<<32|uint64(pkt.Header.ID))
			h.Write(word[:])
			for _, w := range pkt.Payload {
				binary.LittleEndian.PutUint64(word[:], uint64(w))
				h.Write(word[:])
			}
		}
	}
	h.Sum(run.digest[:0])
	return run
}

// TestMacroEngagementEquivalence: the fast engine must actually
// macro-step the loaded router (windows > 0 with events AND telemetry
// armed — the observation planes bound windows, they must not disarm
// them) and still match the reference interpreter bit-for-bit on every
// simulation-visible output.
func TestMacroEngagementEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("macro engagement matrix skipped in -short")
	}
	ref := runMacroLoad(t, raw.EngineRef)
	if ref.windows != 0 || ref.cycles != 0 {
		t.Fatalf("reference engine reported macro stats: windows=%d cycles=%d", ref.windows, ref.cycles)
	}
	fast := runMacroLoad(t, raw.EngineFast)
	if fast.windows == 0 || fast.cycles == 0 {
		t.Fatalf("macro never engaged on the loaded router: windows=%d cycles=%d",
			fast.windows, fast.cycles)
	}
	if fast.stats != ref.stats {
		t.Fatalf("stats diverged:\nfast %+v\nref  %+v", fast.stats, ref.stats)
	}
	if fast.events != ref.events {
		t.Fatalf("event logs diverged:\nfast:\n%s\nref:\n%s", fast.events, ref.events)
	}
	if fast.digest != ref.digest {
		t.Fatal("delivered payload bytes diverged")
	}
	for _, format := range telemetry.Formats() {
		if !bytes.Equal(fast.exports[format], ref.exports[format]) {
			t.Errorf("%s telemetry export differs between engines", format)
		}
	}
	t.Logf("macro windows=%d cycles=%d (%.1f%% of %d cycles)",
		fast.windows, fast.cycles,
		100*float64(fast.cycles)/float64(fast.stats.Cycle), fast.stats.Cycle)
}

// watchdogArc drives the watchdog through a full arm → degrade →
// re-arm → restore → probation → live arc under one engine and returns
// the observable trace plus macro engagement before and after restore.
func watchdogArc(t *testing.T, eng raw.Engine) (events string, stats router.StatsSnapshot, loaded, restored int64) {
	t.Helper()
	cfg := router.DefaultConfig()
	cfg.Watchdog = true
	cfg.WatchdogCycles = 4000
	cfg.Engine = eng
	ev := &trace.EventLog{}
	cfg.Events = ev
	r := mustNew(t, cfg)

	id := uint16(0)
	gen := func(p int) ip.Packet {
		id++
		return ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr((p+1)%4, uint32(id)), 64, 1024, id)
	}

	// Loaded healthy phase: the watchdog samples heartbeats at every
	// check-mask boundary while macro windows cover the cycles between.
	// A macro restore that failed to advance the parked state counters
	// would read as a wedged crossbar here.
	for c := 0; c < 12000; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	if r.DeadPort() >= 0 || r.Failed() {
		t.Fatalf("watchdog fired on loaded healthy router: dead=%d failed=%v", r.DeadPort(), r.Failed())
	}
	loaded, _ = r.Chip.MacroStats()

	// Manual degrade: the watchdog re-arms over the three survivors and
	// must stay quiet while they forward (the parked tile's heartbeat is
	// excused, not awaited).
	if err := r.Degrade(1); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 12000; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	if r.Failed() || r.DeadPort() != 1 {
		t.Fatalf("watchdog misfired on degraded fabric: dead=%d failed=%v", r.DeadPort(), r.Failed())
	}

	// Restore: drain, readmit, probation, live — the watchdog re-arms
	// over all four ports again, with the restore quiescence scans and
	// probation expiry riding the same step hook.
	if err := r.Restore(1); err != nil {
		t.Fatal(err)
	}
	if !runUntil(r, 400000, func() bool { return r.DeadPort() < 0 && !r.Restoring() }) {
		t.Fatal("restore never completed")
	}
	if !runUntil(r, 100000, func() bool { return r.ProbationPort() < 0 }) {
		t.Fatal("port stuck in probation")
	}
	for c := 0; c < 12000; c += 200 {
		feedSaturated(r, gen)
		r.Run(200)
	}
	r.Run(60000) // drain dry
	if r.DeadPort() >= 0 || r.Failed() {
		t.Fatalf("watchdog misfired after restore: dead=%d failed=%v", r.DeadPort(), r.Failed())
	}
	restored, _ = r.Chip.MacroStats()
	return ev.String(), normalizeStats(r.Stats()), loaded, restored
}

// TestWatchdogRearmUnderMacro: the watchdog's heartbeat accounting must
// be exact with macro windows engaged — quiet on a healthy loaded
// fabric, quiet after a manual degrade, re-armed and quiet again after
// restore — and the whole arc must be event-for-event identical to the
// reference interpreter.
func TestWatchdogRearmUnderMacro(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog macro arc skipped in -short")
	}
	refEvents, refStats, refLoaded, refRestored := watchdogArc(t, raw.EngineRef)
	if refLoaded != 0 || refRestored != 0 {
		t.Fatalf("reference engine reported macro windows: %d / %d", refLoaded, refRestored)
	}
	fastEvents, fastStats, loaded, restored := watchdogArc(t, raw.EngineFast)
	if loaded == 0 {
		t.Fatal("macro never engaged on the loaded router with the watchdog armed")
	}
	if restored <= loaded {
		t.Fatalf("macro windows stopped growing across degrade/restore: %d then %d", loaded, restored)
	}
	if fastStats != refStats {
		t.Fatalf("stats diverged:\nfast %+v\nref  %+v", fastStats, refStats)
	}
	if fastEvents != refEvents {
		t.Fatalf("event logs diverged:\nfast:\n%s\nref:\n%s", fastEvents, refEvents)
	}
	t.Logf("macro windows: %d loaded, %d after restore arc", loaded, restored)
}
