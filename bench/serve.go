package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The serve workload builds the daemon as
//
//	rawrouter -serve -engine fast -workload daymini -watchdog -slice 4096 \
//	    -checkpoint F -ckptevery 64 -maxslices 1025
//
// would, with the daymini spec's seed set to the benchmark's. At the
// preset's load the daemon sheds about 83 % of arrivals at admission. A
// segment is one simulated day of daymini's diurnal curve: 64 slices of
// 4,096 cycles holding exactly one periodic checkpoint. A day lasts about
// half a second and a run holds only sixteen, so the calibration kernel
// also runs every serveCalibSlices slices within a day.
const (
	serveSliceCycles = 4096
	serveDaySlices   = 64
	serveCalibSlices = 8
)

var serveDaymini = &workload{
	name: "serve-daymini",
	why: "The deployed daemon on daymini at its preset load: IMIX flows, most arrivals shed at admission, " +
		"telemetry, periodic checkpoints, then a timed restore.",
	segment: serveDaySlices * serveSliceCycles,
	unit:    serveSliceCycles,
	build:   buildServe,
}

// serveRun is one daemon episode. It is also the daemon's Feeder: every
// Slice call is a slice boundary on the daemon's own goroutine, which is
// where the episode marks days, times slices and scrapes telemetry.
type serveRun struct {
	p         params
	m         *meter
	daemon    *serve.Daemon
	r         *router.Router
	feeder    *serve.WorkloadFeeder
	ckpt      string
	days      int64
	daySlices int64

	// last and paused are the previous Slice call's entry time and the
	// meter's calibration time then, so slice intervals exclude calibration.
	last           time.Time
	paused         time.Duration
	sliceMs        []float64
	arrivals       int64
	words0, words1 int64
	promBytes      int
}

// serveDaemon is one constructed daemon with the feeder it reads.
type serveDaemon struct {
	r      *router.Router
	feeder *serve.WorkloadFeeder
	d      *serve.Daemon
}

// serveFlags parses the rawrouter command line the daemon is built from,
// so every setting it does not name (admission queue bound, drain budget,
// SLO window) is rawrouter's default.
func serveFlags(every, maxSlices int64) (cli.ServeFlags, traffic.Spec, error) {
	var sf cli.ServeFlags
	var wf cli.WorkloadFlags
	fs := flag.NewFlagSet("rawrouter", flag.ContinueOnError)
	sf.RegisterServe(fs)
	wf.RegisterWorkload(fs)
	err := fs.Parse([]string{"-serve", "-workload", "daymini", "-slice", strconv.Itoa(serveSliceCycles),
		"-ckptevery", strconv.FormatInt(every, 10), "-maxslices", strconv.FormatInt(maxSlices, 10)})
	if err != nil {
		return sf, traffic.Spec{}, err
	}
	spec, _, err := wf.Spec()
	return sf, spec, err
}

// newServeDaemon builds router, feeder and daemon; restore, if set, is a
// drain checkpoint to resume from.
func newServeDaemon(p params, f serve.Feeder, ckpt string, maxSlices, every int64, restore []byte) (*serveDaemon, error) {
	sf, spec, err := serveFlags(every, maxSlices)
	if err != nil {
		return nil, err
	}
	spec.Seed = p.seed
	wl, err := traffic.Build(spec)
	if err != nil {
		return nil, err
	}
	feeder, err := serve.NewWorkloadFeeder(wl, sf.SliceCycles)
	if err != nil {
		return nil, err
	}
	collector := telemetry.New(telemetry.Config{})
	events := &trace.EventLog{}
	cfg := router.DefaultConfig()
	cfg.Engine = p.engine
	cfg.Watchdog = true
	cfg.Checkpoint = true
	cfg.Metrics = collector
	cfg.Events = events
	r, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	if f == nil {
		f = feeder
	}
	d, err := serve.New(serve.Config{
		Router:                r,
		ClockHz:               cfg.ClockHz,
		Feeder:                f,
		SliceCycles:           sf.SliceCycles,
		QueuePkts:             sf.QueuePkts,
		Gates:                 serve.Gates{MinGbps: sf.SLOMinGbps, MaxDropRate: sf.SLOMaxDrop, WindowSlices: sf.SLOWindow},
		CheckpointPath:        ckpt,
		CheckpointEverySlices: sf.CkptEvery,
		MaxSlices:             sf.MaxSlices,
		DrainBudgetSlices:     sf.DrainBudget,
		Base:                  &fault.Schedule{},
		Restore:               restore,
		Collector:             collector,
		Events:                events,
	})
	if err != nil {
		return nil, err
	}
	return &serveDaemon{r: r, feeder: feeder, d: d}, nil
}

func buildServe(p params) (episodeRunner, error) {
	s := &serveRun{p: p, days: segments, daySlices: p.seg / serveSliceCycles}
	s.ckpt = filepath.Join(p.dir, "serve.ckpt")
	// One slice past the last day, so the last day ends at a Slice call.
	sd, err := newServeDaemon(p, s, s.ckpt, s.days*s.daySlices+1, s.daySlices, nil)
	if err != nil {
		return nil, err
	}
	s.daemon, s.r, s.feeder = sd.d, sd.r, sd.feeder
	return s, nil
}

// Slice implements serve.Feeder.
func (s *serveRun) Slice(k int64) [4][]ip.Packet {
	if k > 0 {
		s.sliceMs = append(s.sliceMs, float64(time.Since(s.last)-(s.m.paused-s.paused))/1e6)
	}
	s.last, s.paused = time.Now(), s.m.paused
	if k%s.daySlices == 0 {
		day := k / s.daySlices
		if day > 0 && day <= s.days {
			s.m.endSegment(s.daySlices * serveSliceCycles)
		}
		switch day {
		case 0:
			s.m.startTimed()
			s.words0 = s.outWords()
		case s.days:
			s.m.stopTimed()
			s.words1 = s.outWords()
		}
		if day < s.days {
			s.m.beginSegment("serve.day")
			s.scrape()
		}
	} else if k%serveCalibSlices == 0 && k < s.days*s.daySlices {
		s.m.calibrateWithin()
	}
	id := s.m.tr.begin("traffic.slice")
	out := s.feeder.Slice(k)
	s.m.tr.end(id)
	for p := range out {
		s.arrivals += int64(len(out[p]))
	}
	return out
}

// Close implements serve.Feeder.
func (s *serveRun) Close() error { return s.feeder.Close() }

// scrape renders /metrics the way the daemon's handler does, once a day.
func (s *serveRun) scrape() {
	id := s.m.tr.begin("telemetry.snapshot")
	snap := s.r.TelemetrySnapshot()
	s.m.tr.end(id)
	id = s.m.tr.begin("telemetry.encode")
	body, _ := snap.Encode("prom") // "prom" is a known format
	s.m.tr.end(id)
	s.promBytes = len(body)
}

func (s *serveRun) outWords() int64 {
	var n int64
	for port := 0; port < 4; port++ {
		n += s.r.OutputWords(port)
	}
	return n
}

func (s *serveRun) run(m *meter) (o outcome, err error) {
	defer func() { o.ops = s.arrivals }()
	s.m = m
	id := m.tr.begin("serve.run")
	res, err := s.daemon.Run()
	m.tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	if res.Reason != serve.ReasonMaxSlices {
		return outcome{}, fmt.Errorf("daemon exited %s, want %s", res.Reason, serve.ReasonMaxSlices)
	}
	if int64(len(m.segs)) != s.days {
		return outcome{}, fmt.Errorf("daemon served %d days, want %d", len(m.segs), s.days)
	}
	led := s.daemon.Status().Ingest.Totals()
	if led.OfferedPkts != led.AdmittedPkts+led.QueuedPkts+led.ShedPkts+led.DrainDiscardedPkts ||
		led.OfferedWords != led.AdmittedWords+led.QueuedWords+led.ShedWords+led.DrainDiscardedWords {
		return outcome{}, fmt.Errorf("ingest ledger does not balance: %+v", led)
	}
	if led.OfferedPkts != s.arrivals {
		return outcome{}, fmt.Errorf("ledger offered %d packets, feeder produced %d", led.OfferedPkts, s.arrivals)
	}
	st := s.r.Stats()
	var in, out, failed int64
	for port := 0; port < 4; port++ {
		in += st.PktsIn[port]
		out += st.PktsOut[port]
		failed += st.Dropped[port] + st.AbortDropped[port]
	}
	if out+st.FabricLost > in {
		return outcome{}, fmt.Errorf("router delivered %d + lost %d packets of %d in", out, st.FabricLost, in)
	}
	// Shedding at admission is the daemon's specified answer to overload:
	// counted in the ledger, reported as serve.shed_frac, not a failure.
	// A packet it queued and then discarded at drain, or one the router
	// dropped or lost after admission, is.
	failed += st.FabricLost + led.DrainDiscardedPkts

	id = m.tr.begin("checkpoint.snapshot")
	blob, err := s.r.Snapshot()
	m.tr.end(id)
	if err != nil {
		return outcome{}, err
	}

	// Restore: what a restarted daemon pays, from reading the drain
	// checkpoint to a daemon ready to serve.
	id = m.tr.begin("checkpoint.restore")
	t0 := time.Now()
	ckpt, err := os.ReadFile(s.ckpt)
	var back *serveDaemon
	if err == nil {
		back, err = newServeDaemon(s.p, nil, "", 0, 0, ckpt)
	}
	restoreS := time.Since(t0).Seconds()
	m.tr.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("restore: %w", err)
	}
	if got := back.r.Stats(); got.Cycle != st.Cycle || got.Stats != st.Stats {
		return outcome{}, fmt.Errorf("restore resumed at cycle %d with other counters than the run that wrote it (cycle %d)", got.Cycle, st.Cycle)
	}
	if blob2, err := back.r.Snapshot(); err != nil || !bytes.Equal(blob2, blob) {
		return outcome{}, fmt.Errorf("restored router snapshots differently (%v)", err)
	}

	d := newDigest()
	d.add(st.Cycle, st.FabricLost, res.Slice, res.Cycle)
	d.addArr(st.Accepted, st.Dropped, st.Denied, st.FragsSent, st.PktsIn, st.PktsOut,
		st.Reassembled, st.Lookups, st.AbortDropped, st.Underruns)
	for port := 0; port < 4; port++ {
		d.add(s.r.OutputWords(port))
	}
	d.add(led.OfferedPkts, led.OfferedWords, led.AdmittedPkts, led.AdmittedWords,
		led.ShedPkts, led.ShedWords, led.DrainDiscardedPkts, led.DrainDiscardedWords)

	var ckptSlice, plainSlice []float64
	for i, ms := range s.sliceMs {
		// Interval i runs from Slice(i) to Slice(i+1); the periodic
		// checkpoint is written after the day's last slice.
		if (int64(i)+1)%s.daySlices == 0 {
			ckptSlice = append(ckptSlice, ms)
		} else {
			plainSlice = append(plainSlice, ms)
		}
	}
	timed := s.days * s.daySlices * serveSliceCycles
	vals := map[string]float64{
		"traffic.arrivals":       float64(s.arrivals),
		"serve.shed_frac":        float64(led.ShedPkts) / float64(max(led.OfferedPkts, 1)),
		"serve.slice_ms_p50":     median(s.sliceMs),
		"serve.slice_ms_p99":     quantile(s.sliceMs, 0.99),
		"serve.ckpt_slice_ms":    median(ckptSlice),
		"serve.plain_slice_ms":   median(plainSlice),
		"checkpoint.snapshot_mb": float64(len(blob)) / 1e6,
		"checkpoint.ckpt_mb":     float64(res.CheckpointBytes) / 1e6,
		"checkpoint.restore_s":   restoreS,
		"telemetry.prom_kb":      float64(s.promBytes) / 1e3,
	}
	var mc macroCounts
	mc.addChip(st.MacroWindows, st.MacroCycles, st.MacroDisarms)
	mc.into(vals, st.Cycle)
	return outcome{
		failed: failed,
		cycles: timed, words: s.words1 - s.words0,
		digest: d.h, vals: vals,
	}, nil
}
