package serve

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// newTestRouter builds a cycle router the way the rawrouter serve path
// does, with record-replay armed when the test checkpoints.
func newTestRouter(t *testing.T, mod func(*router.Config)) *router.Router {
	t.Helper()
	rcfg := router.DefaultConfig()
	if mod != nil {
		mod(&rcfg)
	}
	r, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// specFeeder compiles a workload spec onto the daemon's slice time base.
func specFeeder(t *testing.T, spec traffic.Spec, sliceCycles int64) *WorkloadFeeder {
	t.Helper()
	f, err := NewWorkloadFeeder(traffic.MustBuild(spec), sliceCycles)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testFeeder is the tests' standard feed: uniform 1,024-byte packets at
// ratePerMille words per 1000 cycles per port, on 1,024-cycle slices.
func testFeeder(t *testing.T, ratePerMille int) *WorkloadFeeder {
	t.Helper()
	return specFeeder(t, traffic.Spec{Pattern: "uniform", Ports: 4, Size: 1024, Seed: 5,
		Rate: float64(ratePerMille) / 1000}, 1024)
}

// TestDaemonServesAndDrains: the basic lifecycle — serve MaxSlices
// slices, self-drain, checkpoint, and account for every offered word.
func TestDaemonServesAndDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.srv")
	d, err := New(Config{
		Router:         newTestRouter(t, func(c *router.Config) { c.Checkpoint = true }),
		Feeder:         testFeeder(t, 800),
		SliceCycles:    1024,
		MaxSlices:      24,
		CheckpointPath: path,
		Collector:      telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonMaxSlices || res.Forced {
		t.Fatalf("result = %+v, want clean max-slices drain", res)
	}
	if res.CheckpointPath != path || res.CheckpointBytes == 0 {
		t.Fatalf("checkpoint missing from result: %+v", res)
	}
	st := d.Status()
	if st.State != StateDrained {
		t.Fatalf("final state %s, want drained", st.State)
	}
	tot := st.Ingest.Totals()
	if tot.OfferedWords == 0 {
		t.Fatal("feeder offered nothing")
	}
	if tot.OfferedWords != tot.AdmittedWords+tot.QueuedWords+tot.ShedWords+tot.DrainDiscardedWords {
		t.Fatalf("ledger identity broken: %+v", tot)
	}
	if tot.QueuedWords != 0 {
		t.Fatalf("clean drain left %d words queued", tot.QueuedWords)
	}
	if st.Violations != 0 {
		t.Fatalf("healthy run logged %d SLO violations: %v", st.Violations, st.Active)
	}
}

// runToCheckpoint runs a daemon to MaxSlices and returns the checkpoint
// bytes.
func runToCheckpoint(t *testing.T, path string, maxSlices int64, restore []byte) []byte {
	t.Helper()
	d, err := New(Config{
		Router:         newTestRouter(t, func(c *router.Config) { c.Checkpoint = true }),
		Feeder:         testFeeder(t, 800),
		SliceCycles:    1024,
		MaxSlices:      maxSlices,
		CheckpointPath: path,
		Restore:        restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDrainCheckpointResume: a drain checkpoint restores (the restore
// layer replays and verifies the state bit-for-bit) and the resumed
// daemon is deterministic — two restores of the same blob produce
// byte-identical continuations.
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	first := runToCheckpoint(t, filepath.Join(dir, "a.srv"), 16, nil)

	slice, eras, _, err := decodeCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	if slice < 16 || len(eras) != 0 {
		t.Fatalf("drain checkpoint at slice %d with %d eras", slice, len(eras))
	}

	r1 := runToCheckpoint(t, filepath.Join(dir, "b.srv"), 32, first)
	r2 := runToCheckpoint(t, filepath.Join(dir, "c.srv"), 32, first)
	if string(r1) != string(r2) {
		t.Fatal("two restores of the same checkpoint diverged")
	}
	if string(r1) == string(first) {
		t.Fatal("resumed run did not advance")
	}
}

// TestPeriodicCheckpointAllocation: once the input log spans three of
// the recorder's 1 MiB blocks, a periodic checkpoint streams the log
// into its file without allocating anything blob-sized. Re-encoding the
// log and copying the blob once per layer allocates about 16 MB for
// this 3.8 MB file, far past the limit.
func TestPeriodicCheckpointAllocation(t *testing.T) {
	d, err := New(Config{
		Router:                newTestRouter(t, func(c *router.Config) { c.Checkpoint = true }),
		Feeder:                testFeeder(t, 800),
		SliceCycles:           1024,
		MaxSlices:             80,
		CheckpointEverySlices: 16,
		CheckpointPath:        filepath.Join(t.TempDir(), "p.srv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := d.writeCheckpoint(false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n < 3<<20 {
		t.Fatalf("checkpoint of %d bytes: the log spans fewer than three blocks", n)
	}
	const limit = 64 << 10
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Errorf("a %d-byte checkpoint allocated %d bytes, limit %d", n, alloc, limit)
	} else {
		t.Logf("a %d-byte checkpoint allocated %d bytes", n, alloc)
	}
}

// TestOverloadShedsNotStalls: a feeder offering far beyond line rate
// against a tiny admission queue must shed (counted) while the cycle
// loop keeps advancing and the ledger identity holds.
func TestOverloadShedsNotStalls(t *testing.T) {
	d, err := New(Config{
		Router:      newTestRouter(t, nil),
		Feeder:      testFeeder(t, 4000),
		SliceCycles: 1024,
		QueuePkts:   4,
		MaxSlices:   32,
		Gates:       Gates{MaxDropRate: 0.5, WindowSlices: 4},
		Events:      &trace.EventLog{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle < 32*1024 {
		t.Fatalf("cycle loop stalled at %d", res.Cycle)
	}
	st := d.Status()
	tot := st.Ingest.Totals()
	if tot.ShedWords == 0 {
		t.Fatal("4x overload shed nothing")
	}
	if tot.OfferedWords != tot.AdmittedWords+tot.QueuedWords+tot.ShedWords+tot.DrainDiscardedWords {
		t.Fatalf("ledger identity broken under overload: %+v", tot)
	}
	// 4x offered load against a line-rate fabric sheds well over half:
	// the drop-rate gate must have tripped and logged a typed event.
	if st.Violations == 0 {
		t.Fatal("drop-rate SLO never tripped under 4x overload")
	}
	found := false
	for _, e := range d.cfg.Events.Events {
		if e.Kind == trace.EvSLOViolation && strings.Contains(e.Detail, GateDropRate) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slo-violation event for the drop-rate gate in %d events", len(d.cfg.Events.Events))
	}
}

// waitStatus polls the published status until pred holds or the deadline
// passes.
func waitStatus(t *testing.T, d *Daemon, what string, pred func(*Status) bool) *Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := d.Status()
		if pred(st) {
			return st
		}
		select {
		case <-d.Done():
			st = d.Status()
			if pred(st) {
				return st
			}
			t.Fatalf("daemon exited before %s; final status %+v", what, st)
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatalf("timed out waiting for %s; status %+v", what, d.Status())
	return nil
}

// TestDegradeRestoreReadiness: a frozen crossbar tile degrades the
// fabric — /readyz flips not-ready with the degraded port named — and
// the auto-restore arc brings readiness back; the events land in the
// recovery log.
func TestDegradeRestoreReadiness(t *testing.T) {
	events := &trace.EventLog{}
	sched := fault.MustParse("freeze@8000+60000:t6") // port 1's crossbar tile
	r := newTestRouter(t, func(c *router.Config) {
		c.Watchdog = true
		c.WatchdogCycles = 4000
		c.AutoRestore = true
		c.Events = events
	})
	r.Chip.InstallFaults(fault.NewInjector(sched, router.NumTiles))
	d, err := New(Config{
		Router:      r,
		Feeder:      testFeeder(t, 800),
		SliceCycles: 1024,
		Base:        sched,
		Events:      events,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run()
		done <- err
	}()

	if st := d.Status(); !st.Ready {
		t.Fatalf("not ready at boot: %s", st.NotReadyReason)
	}
	st := waitStatus(t, d, "degrade", func(st *Status) bool { return !st.Ready && st.DeadPort == 1 })
	if !strings.Contains(st.NotReadyReason, "port 1") {
		t.Fatalf("not-ready reason %q does not name the degraded port", st.NotReadyReason)
	}
	waitStatus(t, d, "recovery", func(st *Status) bool { return st.Ready && st.DeadPort < 0 })

	<-d.RequestDrain()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.EventKind]bool{}
	for _, e := range events.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []trace.EventKind{trace.EvDegrade, trace.EvReadmit, trace.EvDrainStart} {
		if !kinds[want] {
			t.Fatalf("event log missing %s; have %v", want, events.Events)
		}
	}
}

// TestSoakChaosWindow: a soak run across multiple rolling windows under
// real load survives to a clean drain with the conservation gate green,
// and the windows are recorded in the checkpoint for an exact resume.
func TestSoakChaosWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.srv")
	build := func(restore []byte) *Daemon {
		r := newTestRouter(t, func(c *router.Config) {
			c.Checkpoint = true
			c.Watchdog = true
			c.AutoRestore = true
			c.ReprobeQuanta = 2
		})
		d, err := New(Config{
			Router:         r,
			Feeder:         testFeeder(t, 600),
			SliceCycles:    1024,
			MaxSlices:      48,
			CheckpointPath: path,
			Restore:        restore,
			Soak: &SoakOptions{
				Seed:         11,
				WindowCycles: 16 * 1024,
				Opts:         fault.RandomOptions{MaxStalls: 4, MaxFlaps: 2, MaxFreezes: 1, MaxDRAM: 2, MaxStallCycles: 800},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := build(nil)
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.SoakWindows < 3 {
		t.Fatalf("only %d soak windows installed over 48 slices", st.SoakWindows)
	}
	for _, v := range st.Active {
		if v.Gate == GateConservation {
			t.Fatalf("conservation gate red after soak: %v", v)
		}
	}
	if res.Reason != ReasonMaxSlices {
		t.Fatalf("soak exit %s, want max-slices", res.Reason)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, eras, _, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(eras) != st.SoakWindows {
		t.Fatalf("checkpoint carries %d eras, status says %d windows", len(eras), st.SoakWindows)
	}

	// The checkpoint restores: same windows, same injector, replay
	// verified. A restore without soak configured must be refused.
	d2 := build(blob)
	if got := len(d2.windowEras); got != len(eras) {
		t.Fatalf("restore rebuilt %d windows, want %d", got, len(eras))
	}
	if _, err := New(Config{
		Router:      newTestRouter(t, func(c *router.Config) { c.Checkpoint = true }),
		Feeder:      testFeeder(t, 600),
		SliceCycles: 1024,
		Restore:     blob,
	}); err == nil {
		t.Fatal("soak checkpoint restored without soak configured")
	}
}

// TestHTTPControlPlane: the mux serves health, readiness, metrics (with
// the serve-plane series), and a drain that returns the checkpoint — and
// keeps answering from the final state after the daemon exits.
func TestHTTPControlPlane(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.srv")
	d, err := New(Config{
		Router:         newTestRouter(t, func(c *router.Config) { c.Checkpoint = true }),
		Feeder:         testFeeder(t, 800),
		SliceCycles:    1024,
		CheckpointPath: path,
		Collector:      telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run()
		done <- err
	}()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"state": "serving"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, series := range []string{"raw_router_quanta_total", "raw_router_serve_state", "raw_router_serve_offered_words_total"} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
	if code, body := get("/metrics?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus metrics format = %d %q", code, body)
	}

	resp, err := http.Post(srv.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Reason     string `json:"reason"`
		Checkpoint string `json:"checkpoint"`
		Bytes      int    `json:"bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.Reason != "drained" || dr.Checkpoint != path || dr.Bytes == 0 {
		t.Fatalf("/drain = %+v", dr)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The daemon has exited; handlers answer from the final state.
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "drained") {
		t.Fatalf("post-exit /readyz = %d %q", code, body)
	}
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("post-exit /metrics = %d", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("post-exit /healthz = %d (drained is a clean liveness state)", code)
	}
	// A second drain coalesces into the finished result.
	resp2, err := http.Post(srv.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), `"reason": "drained"`) {
		t.Fatalf("second /drain = %q", body2)
	}
}

// failingDaemon builds a daemon whose router fail-stops under load: two
// crossbar tiles crash at once, which the watchdog cannot attribute.
func failingDaemon(t *testing.T) *Daemon {
	t.Helper()
	sched := fault.MustParse("crash@3000:t5;crash@3000:t6")
	r := newTestRouter(t, func(c *router.Config) {
		c.Watchdog = true
		c.WatchdogCycles = 2000
	})
	r.Chip.InstallFaults(fault.NewInjector(sched, router.NumTiles))
	d, err := New(Config{
		Router:      r,
		Feeder:      testFeeder(t, 800),
		SliceCycles: 1024,
		MaxSlices:   64,
		Base:        sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestHealthzKeys: every key /healthz writes is snake_case, the
// per-port admission ledger under ingest.ports[] included.
func TestHealthzKeys(t *testing.T) {
	d, err := New(Config{
		Router:      newTestRouter(t, nil),
		Feeder:      testFeeder(t, 800),
		SliceCycles: 1024,
		MaxSlices:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body)
	}
	var body struct {
		Ingest struct {
			Ports []map[string]json.RawMessage `json:"ports"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want := []string{"offered_pkts", "offered_words", "admitted_pkts", "admitted_words",
		"shed_pkts", "shed_words", "drain_discarded_pkts", "drain_discarded_words",
		"queued_pkts", "queued_words"}
	if len(body.Ingest.Ports) != 4 {
		t.Fatalf("ingest.ports has %d entries, want 4: %s", len(body.Ingest.Ports), rec.Body)
	}
	for p, port := range body.Ingest.Ports {
		for _, k := range want {
			if _, ok := port[k]; !ok {
				t.Errorf("ingest.ports[%d] lacks %q", p, k)
			}
		}
		if len(port) != len(want) {
			t.Errorf("ingest.ports[%d] has %d keys, want %d: %v", p, len(port), len(want), port)
		}
	}
}

// TestDaemonFailStop: an unattributable double wedge ends the run with
// ReasonFailed and an unhealthy /healthz.
func TestDaemonFailStop(t *testing.T) {
	d := failingDaemon(t)
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonFailed {
		t.Fatalf("reason %s, want failed", res.Reason)
	}
	st := d.Status()
	if !st.RouterFailed || st.State != StateFailed || st.Ready {
		t.Fatalf("failed status = %+v", st)
	}
	rec := httptest.NewRecorder()
	d.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed /healthz = %d, want 503", rec.Code)
	}
}

// TestSupervisorRestartsWithBackoff: the supervisor rebuilds fail-stopped
// incarnations with bumped eras and seeded exponential backoff, and
// surfaces a spent restart budget as an error; a clean exit ends the loop
// immediately.
func TestSupervisorRestartsWithBackoff(t *testing.T) {
	var eras []uint64
	var delays []time.Duration
	_, err := Supervise(SupervisorConfig{
		Build: func(restorePath string, era uint64) (*Daemon, error) {
			eras = append(eras, era)
			return failingDaemon(t), nil
		},
		MaxRestarts: 2,
		BackoffBase: 100 * time.Millisecond,
		Seed:        3,
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("spent budget error = %v", err)
	}
	if len(eras) != 3 {
		t.Fatalf("built %d incarnations, want 3 (initial + 2 restarts)", len(eras))
	}
	for i, e := range eras {
		if e != uint64(i) {
			t.Fatalf("incarnation %d ran era %d, want %d", i, e, i)
		}
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
	if delays[0] < 100*time.Millisecond || delays[1] < 200*time.Millisecond {
		t.Fatalf("backoff did not grow: %v", delays)
	}

	builds := 0
	res, err := Supervise(SupervisorConfig{
		Build: func(restorePath string, era uint64) (*Daemon, error) {
			builds++
			d, err := New(Config{
				Router:      newTestRouter(t, nil),
				Feeder:      testFeeder(t, 800),
				SliceCycles: 1024,
				MaxSlices:   4,
			})
			if err != nil {
				t.Fatal(err)
			}
			return d, nil
		},
		Sleep: func(time.Duration) { t.Fatal("clean exit slept") },
	})
	if err != nil || res.Reason != ReasonMaxSlices || builds != 1 {
		t.Fatalf("clean supervise = %+v, %v (builds %d)", res, err, builds)
	}
}

// TestUDPFeederDelivery: datagrams map onto (ingress, destination, size)
// and arrive through Slice.
func TestUDPFeederDelivery(t *testing.T) {
	f, err := NewUDPFeeder("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	conn, err := net.Dial("udp", f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := make([]byte, 200)
	payload[0] = 2 // ingress port 2
	payload[1] = 3 // destination 3
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		out := f.Slice(0)
		if len(out[2]) == 1 {
			pkt := out[2][0]
			// PortAddr puts 10+port in the address's top byte.
			if got := int(pkt.Header.Dst>>24) - 10; got != 3 {
				t.Fatalf("destination %d, want 3", got)
			}
			if got := int(pkt.Header.TotalLen); got != 200 {
				t.Fatalf("size %dB, want 200", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
}
