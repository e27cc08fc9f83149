package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// State is the daemon lifecycle position: serving → draining → drained
// (checkpointed, clean exit), with failed as the fail-stop exit arc the
// supervisor restarts from.
type State int32

// The lifecycle states.
const (
	StateServing State = iota
	StateDraining
	StateDrained
	StateFailed
)

// String names the state for status bodies and logs.
func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Reason says why Run returned.
type Reason int

// The exit reasons.
const (
	// ReasonDrained: a drain request (SIGTERM, /drain) completed.
	ReasonDrained Reason = iota
	// ReasonMaxSlices: the configured slice budget expired; the daemon
	// drained itself.
	ReasonMaxSlices
	// ReasonFailed: the router fail-stopped; restart from the last
	// checkpoint (supervision) is the only way forward.
	ReasonFailed
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonDrained:
		return "drained"
	case ReasonMaxSlices:
		return "max-slices"
	case ReasonFailed:
		return "failed"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Result is Run's outcome.
type Result struct {
	Reason Reason
	// CheckpointPath/CheckpointBytes describe the drain checkpoint ("" /
	// 0 when no checkpoint path was configured or the exit was a fail).
	CheckpointPath  string
	CheckpointBytes int
	// LastCheckpoint is the most recent checkpoint on disk (the drain
	// blob, or the last periodic one before a fail) — what a supervisor
	// restarts from.
	LastCheckpoint string
	// Forced marks a drain whose budget expired before quiescence; the
	// checkpoint is still exact (record-replay does not need an idle
	// fabric), but queued admissions were discarded (and counted).
	Forced bool
	Cycle  int64
	Slice  int64
}

// SoakOptions arms continuous chaos: rolling fault.Window schedules
// generated as the simulation reaches them.
type SoakOptions struct {
	// Seed drives every window.
	Seed uint64
	// WindowCycles is the rolling window length (default 262,144 cycles;
	// rounded up to whole slices).
	WindowCycles int64
	// Opts bounds each window's event classes (fault.Random defaults
	// apply; Horizon is overridden per window).
	Opts fault.RandomOptions
	// Era salts windows generated from now on. The supervisor bumps it
	// on every restart so the restored run does not deterministically
	// re-enter the exact arc that killed the previous incarnation.
	Era uint64
}

// Config assembles a Daemon. Router and Feeder are required; everything
// else has serviceable defaults.
type Config struct {
	// Router is the cycle-level router (built with Config.Checkpoint if
	// CheckpointPath / CheckpointEverySlices / Restore are used).
	Router *router.Router
	// ClockHz converts cycle counts to wall rates (default 250 MHz).
	ClockHz float64
	// Feeder supplies arrivals per slice.
	Feeder Feeder
	// SliceCycles is the admission/control time base (default 4096
	// cycles). Slices are the only points the daemon touches simulator
	// state, services control requests, and publishes status.
	SliceCycles int64
	// QueuePkts bounds each port's admission queue (default 64 packets);
	// arrivals beyond it are shed, never blocked.
	QueuePkts int
	// Gates are the SLO guardrails.
	Gates Gates
	// CheckpointPath, if set, receives the drain checkpoint (and
	// periodic ones when CheckpointEverySlices > 0).
	CheckpointPath string
	// CheckpointEverySlices writes a periodic checkpoint every N slices
	// (0 = only at drain). Requires CheckpointPath.
	CheckpointEverySlices int64
	// MaxSlices, if > 0, drains the daemon after that many serving
	// slices — a deadman for tests and CI.
	MaxSlices int64
	// DrainBudgetSlices bounds how long a drain waits for quiescence
	// before checkpointing anyway (default 256 slices).
	DrainBudgetSlices int64
	// Base is the explicit fault schedule (-faults / -faultseed); the
	// daemon installs it (and its scheduled recovery controls) before
	// any restore so replay sees identical faults.
	Base *fault.Schedule
	// Soak, if non-nil, layers rolling chaos windows on top of Base.
	Soak *SoakOptions
	// Restore is a serve checkpoint blob (WriteCheckpoint's format) to
	// resume from.
	Restore []byte
	// Collector, if non-nil, is the telemetry collector wired into the
	// router config; serve events are recorded into it and /metrics
	// renders its snapshot.
	Collector *telemetry.Collector
	// Events, if non-nil, receives serve-plane events alongside the
	// router's.
	Events *trace.EventLog
	// Logf, if non-nil, receives one-line progress narration.
	Logf func(format string, args ...any)
}

// IngestStatus is the published admission ledger.
type IngestStatus struct {
	Ports [4]PortIngest `json:"ports"`
}

// Totals sums the ledger across ports.
func (s *IngestStatus) Totals() PortIngest {
	var t PortIngest
	for p := range s.Ports {
		l := &s.Ports[p]
		t.OfferedPkts += l.OfferedPkts
		t.OfferedWords += l.OfferedWords
		t.AdmittedPkts += l.AdmittedPkts
		t.AdmittedWords += l.AdmittedWords
		t.ShedPkts += l.ShedPkts
		t.ShedWords += l.ShedWords
		t.DrainDiscardedPkts += l.DrainDiscardedPkts
		t.DrainDiscardedWords += l.DrainDiscardedWords
		t.QueuedPkts += l.QueuedPkts
		t.QueuedWords += l.QueuedWords
	}
	return t
}

// Status is the immutable, atomically published daemon state — what
// /healthz and /readyz serve without touching the slice loop.
type Status struct {
	State State `json:"-"`
	// StateName is State rendered for JSON bodies.
	StateName string `json:"state"`
	// Ready is the readiness verdict: serving, router healthy (no dead
	// port, not restoring, no probation), and no active SLO violation.
	Ready bool `json:"ready"`
	// NotReadyReason explains a false Ready.
	NotReadyReason string `json:"not_ready_reason,omitempty"`
	Cycle          int64  `json:"cycle"`
	Slice          int64  `json:"slice"`
	Quanta         int64  `json:"quanta"`
	DeadPort       int    `json:"dead_port"`
	ProbationPort  int    `json:"probation_port"`
	Restoring      bool   `json:"restoring"`
	RouterFailed   bool   `json:"router_failed"`
	// WindowGbps is delivered throughput over the last full SLO window
	// (0 until a window fills).
	WindowGbps float64 `json:"window_gbps"`
	// Violations counts SLO violation entering-transitions; Active lists
	// the gates currently in violation.
	Violations int64       `json:"slo_violations_total"`
	Active     []Violation `json:"slo_active,omitempty"`
	// SoakWindows counts rolling chaos windows installed so far.
	SoakWindows int          `json:"soak_windows"`
	Ingest      IngestStatus `json:"ingest"`
}

// Daemon runs the router as a service. Construct with New, run with Run
// (blocking; one goroutine owns all simulator state), interact through
// Handler / RequestDrain / Status from any goroutine.
type Daemon struct {
	cfg Config
	r   *router.Router
	adm *admission
	slo *sloLoop

	slice   int64
	state   State
	reason  Reason
	clamped bool

	// Rolling soak state: one era per installed window, index = window k.
	windowEras   []uint64
	windowSlices int64

	// Per-slice delta baselines.
	prevOutWords [4]int64
	prevOffered  int64
	prevShed     int64

	// Drain state.
	drainStart   int64
	drainStable  int
	drainWaiters []chan Result
	lastCkpt     string

	ctl    chan func()
	done   chan struct{}
	status atomic.Pointer[Status]
	final  atomic.Pointer[Result]
}

// New validates the config, installs the fault plane, and — when
// Config.Restore is set — replays the checkpoint so Run continues the
// recorded run bit-for-bit.
func New(cfg Config) (*Daemon, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("serve: Config.Router is required")
	}
	if cfg.Feeder == nil {
		return nil, fmt.Errorf("serve: Config.Feeder is required")
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = 250e6
	}
	if cfg.SliceCycles <= 0 {
		cfg.SliceCycles = 4096
	}
	if cfg.QueuePkts <= 0 {
		cfg.QueuePkts = 64
	}
	if cfg.DrainBudgetSlices <= 0 {
		cfg.DrainBudgetSlices = 256
	}
	if cfg.CheckpointEverySlices > 0 && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("serve: CheckpointEverySlices requires CheckpointPath")
	}
	d := &Daemon{
		cfg:  cfg,
		r:    cfg.Router,
		adm:  newAdmission(cfg.QueuePkts, pinHighWords),
		slo:  newSLOLoop(cfg.Gates, cfg.ClockHz),
		ctl:  make(chan func(), 16),
		done: make(chan struct{}),
	}
	if cfg.Soak != nil {
		if cfg.Soak.WindowCycles <= 0 {
			cfg.Soak.WindowCycles = 262_144
		}
		d.windowSlices = (cfg.Soak.WindowCycles + cfg.SliceCycles - 1) / cfg.SliceCycles
		if d.windowSlices < 1 {
			d.windowSlices = 1
		}
	}

	var startSlice int64
	var blob []byte
	if cfg.Restore != nil {
		var eras []uint64
		var err error
		startSlice, eras, blob, err = decodeCheckpoint(cfg.Restore)
		if err != nil {
			return nil, err
		}
		if len(eras) > 0 && cfg.Soak == nil {
			return nil, fmt.Errorf("serve: checkpoint holds %d soak windows but soak is not configured", len(eras))
		}
		d.windowEras = eras
	}

	// Fault plane and scheduled recovery controls go in before any
	// restore: the replay must see the exact injector and controls the
	// original run had.
	d.installInjector()
	if cfg.Base != nil {
		d.r.ScheduleControls(cfg.Base)
	}
	if blob != nil {
		if err := d.r.RestoreSnapshot(blob); err != nil {
			return nil, fmt.Errorf("serve: restore: %w", err)
		}
		d.slice = startSlice
		d.logf("restored checkpoint: cycle %d, slice %d, %d soak windows", d.r.Cycle(), d.slice, len(d.windowEras))
	}
	d.publish()
	return d, nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// event records a serve-plane event into the telemetry collector and the
// event log. Serve events carry port -1: they are plane-wide, not tied
// to an edge port.
func (d *Daemon) event(kind trace.EventKind, detail string) {
	e := trace.Event{Cycle: d.r.Cycle(), Port: -1, Kind: kind, Detail: detail}
	d.cfg.Collector.RecordEvent(e)
	if d.cfg.Events != nil {
		d.cfg.Events.Events = append(d.cfg.Events.Events, e)
	}
	d.logf("event: %d %s", e.Cycle, e.String())
}

// installInjector compiles Base ∪ installed soak windows and installs it
// on the chip. Rebuilding from the union keeps mid-run installs
// replay-correct: a restored run installs the same union before replay,
// and events confined to future windows are inert during earlier cycles.
// An empty union installs nothing: an empty schedule is no schedule.
func (d *Daemon) installInjector() {
	scheds := []*fault.Schedule{d.cfg.Base}
	if d.cfg.Soak != nil {
		for k, era := range d.windowEras {
			scheds = append(scheds, fault.Window(d.cfg.Soak.Seed, era, int64(k),
				d.windowSlices*d.cfg.SliceCycles, d.cfg.Soak.Opts))
		}
	}
	u := fault.Union(scheds...)
	if len(u.Events) == 0 {
		return
	}
	d.r.Chip.InstallFaults(fault.NewInjector(u, router.NumTiles))
}

// soakTick generates and installs the next rolling window when the
// serving slice crosses a window boundary.
func (d *Daemon) soakTick() {
	if d.cfg.Soak == nil || d.windowSlices == 0 {
		return
	}
	k := d.slice / d.windowSlices
	for int64(len(d.windowEras)) <= k {
		d.windowEras = append(d.windowEras, d.cfg.Soak.Era)
		d.logf("soak: window %d armed (era %d, slices %d..%d)",
			len(d.windowEras)-1, d.cfg.Soak.Era,
			int64(len(d.windowEras)-1)*d.windowSlices, int64(len(d.windowEras))*d.windowSlices-1)
	}
	if int64(len(d.windowEras)) == k+1 && d.slice%d.windowSlices == 0 {
		d.installInjector()
	}
}

// Run is the slice loop: admit → simulate → harvest → judge → publish,
// forever, until a drain request (or MaxSlices, or a router fail-stop)
// ends it. It must be called exactly once, and owns all simulator state
// for its duration.
func (d *Daemon) Run() (Result, error) {
	res, err := d.run()
	d.final.Store(&res)
	// Service stragglers enqueued during the last slice (their drain
	// registrations land in drainWaiters), then notify and close. A
	// request racing the close waits on Done and reads FinalResult (see
	// the /drain handler).
	d.processCtl()
	for _, w := range d.drainWaiters {
		w <- res
	}
	d.drainWaiters = nil
	close(d.done)
	return res, err
}

// Done is closed once Run has returned; FinalResult is non-nil from that
// point. Handlers select on Done to avoid waiting on a loop that has
// already exited.
func (d *Daemon) Done() <-chan struct{} { return d.done }

// FinalResult returns Run's result, or nil while the daemon is running.
func (d *Daemon) FinalResult() *Result { return d.final.Load() }

func (d *Daemon) run() (Result, error) {
	for {
		d.processCtl()
		if d.r.Failed() {
			d.state = StateFailed
			d.publish()
			return d.result(ReasonFailed, false), nil
		}
		switch d.state {
		case StateServing:
			if d.cfg.MaxSlices > 0 && d.slice >= d.cfg.MaxSlices {
				d.beginDrain(ReasonMaxSlices)
				continue
			}
			d.soakTick()
			d.adm.offer(d.cfg.Feeder.Slice(d.slice), d.clamped)
			d.adm.pump(d.r.InputBacklogWords, d.r.OfferPacket)
			d.r.Run(d.cfg.SliceCycles)
			if err := d.harvest(); err != nil {
				return d.result(ReasonFailed, false), err
			}
			d.sloTick()
			d.slice++
			if d.cfg.CheckpointEverySlices > 0 && d.slice%d.cfg.CheckpointEverySlices == 0 {
				if _, err := d.writeCheckpoint(false); err != nil {
					return d.result(ReasonFailed, false), err
				}
			}
			d.publish()
		case StateDraining:
			d.adm.pump(d.r.InputBacklogWords, d.r.OfferPacket)
			d.r.Run(d.cfg.SliceCycles)
			if err := d.harvest(); err != nil {
				return d.result(ReasonFailed, false), err
			}
			d.slice++
			d.publish()
			if d.drainQuiet() {
				d.drainStable++
			} else {
				d.drainStable = 0
			}
			budgetOut := d.slice-d.drainStart >= d.cfg.DrainBudgetSlices
			if d.drainStable >= 2 || budgetOut {
				return d.finishDrain(budgetOut && d.drainStable < 2)
			}
		default:
			return d.result(d.reason, false), fmt.Errorf("serve: run entered state %s", d.state)
		}
	}
}

// processCtl services queued control-plane requests between slices.
func (d *Daemon) processCtl() {
	for {
		select {
		case f := <-d.ctl:
			f()
		default:
			return
		}
	}
}

// harvest drains the output pins (bounding sink memory on a long run)
// and refreshes the per-slice delta baselines.
func (d *Daemon) harvest() error {
	for p := 0; p < 4; p++ {
		if _, err := d.r.DrainOutput(p); err != nil {
			return fmt.Errorf("serve: output port %d: %w", p, err)
		}
	}
	return nil
}

// sloTick folds this slice's sample into the rolling window, emits
// violation/clear events, and applies the degradation responses.
func (d *Daemon) sloTick() {
	var s sloSample
	s.cycles = d.cfg.SliceCycles
	for p := 0; p < 4; p++ {
		out := d.r.OutputWords(p)
		s.outWords += out - d.prevOutWords[p]
		d.prevOutWords[p] = out
	}
	tot := (&IngestStatus{Ports: d.adm.ledger}).Totals()
	s.offeredWords = tot.OfferedWords - d.prevOffered
	s.shedWords = tot.ShedWords - d.prevShed
	d.prevOffered = tot.OfferedWords
	d.prevShed = tot.ShedWords

	entered, cleared := d.slo.observe(d.slice, d.r.Cycle(), s, d.conservationOK())
	for _, v := range entered {
		d.event(trace.EvSLOViolation, v.String())
	}
	if cleared {
		d.event(trace.EvSLOClear, "")
	}
	d.clamped = d.slo.dropRateActive()
}

// conservationOK checks the invariants that must hold at every slice
// boundary: the admission ledger balances, and the router never claims
// more deliveries than admissions.
func (d *Daemon) conservationOK() bool {
	if !d.adm.balanced() {
		return false
	}
	st := d.r.Stats()
	var in, out int64
	for p := 0; p < 4; p++ {
		in += st.PktsIn[p]
		out += st.PktsOut[p]
	}
	return out+st.FabricLost <= in
}

// drainQuiet is the drain-side quiescence predicate: nothing in flight
// in the fabric, no queued admissions, and no undelivered backlog on a
// port that can still consume it.
func (d *Daemon) drainQuiet() bool {
	if !d.r.Quiescent() {
		return false
	}
	for p := 0; p < 4; p++ {
		if d.adm.queuedWords(p) > 0 {
			return false
		}
		if p != d.r.DeadPort() && d.r.InputBacklogWords(p) > 0 {
			return false
		}
	}
	return true
}

// beginDrain flips the daemon into the draining state (idempotent).
func (d *Daemon) beginDrain(reason Reason) {
	if d.state != StateServing {
		return
	}
	d.state = StateDraining
	d.reason = reason
	d.drainStart = d.slice
	d.drainStable = 0
	d.event(trace.EvDrainStart, fmt.Sprintf("reason=%s", reason))
	d.publish()
}

// finishDrain writes the drain checkpoint and ends the run.
func (d *Daemon) finishDrain(forced bool) (Result, error) {
	if forced {
		d.adm.discardQueues()
	}
	n, err := d.writeCheckpoint(forced)
	if err != nil {
		return d.result(ReasonFailed, forced), err
	}
	d.state = StateDrained
	d.publish()
	res := d.result(d.reason, forced)
	res.CheckpointPath = d.cfg.CheckpointPath
	res.CheckpointBytes = n
	return res, nil
}

func (d *Daemon) result(reason Reason, forced bool) Result {
	return Result{
		Reason:         reason,
		LastCheckpoint: d.lastCkpt,
		Forced:         forced,
		Cycle:          d.r.Cycle(),
		Slice:          d.slice,
	}
}

// writeCheckpoint streams the serve checkpoint (slice index, soak
// window eras, router blob) into Config.CheckpointPath, replacing the
// previous one only once the new one is complete. A nil path is a no-op
// (drains without a checkpoint path just exit cleanly).
func (d *Daemon) writeCheckpoint(forced bool) (int, error) {
	if d.cfg.CheckpointPath == "" {
		return 0, nil
	}
	blobLen := d.r.SnapshotLen()
	hdr := appendCheckpointHeader(nil, d.slice, d.windowEras, blobLen)
	err := wire.WriteFile(d.cfg.CheckpointPath, func(w io.Writer) error {
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		return d.r.WriteSnapshot(w)
	})
	if err != nil {
		return 0, fmt.Errorf("serve: checkpoint: %w", err)
	}
	n := len(hdr) + blobLen
	d.lastCkpt = d.cfg.CheckpointPath
	detail := fmt.Sprintf("bytes=%d", n)
	if forced {
		detail += " forced"
	}
	d.event(trace.EvCheckpoint, detail)
	return n, nil
}

// publish refreshes the atomically shared Status.
func (d *Daemon) publish() {
	st := &Status{
		State:         d.state,
		StateName:     d.state.String(),
		Cycle:         d.r.Cycle(),
		Slice:         d.slice,
		Quanta:        d.cfg.Collector.Quanta(),
		DeadPort:      d.r.DeadPort(),
		ProbationPort: d.r.ProbationPort(),
		Restoring:     d.r.Restoring(),
		RouterFailed:  d.r.Failed(),
		WindowGbps:    d.slo.lastGbps,
		Violations:    d.slo.total,
		Active:        d.slo.activeViolations(),
		SoakWindows:   len(d.windowEras),
		Ingest:        IngestStatus{Ports: d.adm.ledger},
	}
	st.Ready, st.NotReadyReason = readiness(st)
	d.status.Store(st)
}

// readiness derives the /readyz verdict from a status.
func readiness(st *Status) (bool, string) {
	switch {
	case st.RouterFailed:
		return false, "router fail-stopped"
	case st.State != StateServing:
		return false, "state " + st.StateName
	case st.DeadPort >= 0:
		return false, fmt.Sprintf("port %d degraded", st.DeadPort)
	case st.Restoring:
		return false, "restore draining"
	case st.ProbationPort >= 0:
		return false, fmt.Sprintf("port %d in probation", st.ProbationPort)
	case len(st.Active) > 0:
		return false, "SLO violation: " + st.Active[0].String()
	}
	return true, ""
}

// Status returns the latest published status (never nil after New).
func (d *Daemon) Status() *Status { return d.status.Load() }

// RequestDrain asks the slice loop to drain, checkpoint, and exit. The
// returned channel receives the final Result (immediately, if the daemon
// already stopped). Safe from any goroutine; all requests coalesce into
// one drain.
func (d *Daemon) RequestDrain() <-chan Result {
	ch := make(chan Result, 1)
	select {
	case d.ctl <- func() {
		d.drainWaiters = append(d.drainWaiters, ch)
		d.beginDrain(ReasonDrained)
	}:
	case <-d.done:
		if res := d.final.Load(); res != nil {
			ch <- *res
		}
	}
	return ch
}
