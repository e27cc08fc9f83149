package router

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Port re-admission (robustness extension). Degrade is fail-stop and
// instantaneous; Restore is its inverse and must be hitless for the
// survivors, so it runs as a small state machine driven by the router's
// step hook (Router.Tick):
//
//	degraded --Restore--> draining --quiesce--> re-admitting --window--> live
//
// Draining: the three live ingresses pause new packet acquisition (still
// playing idle quanta — the header exchange and the watchdog's heartbeat
// must not stop) while packets already inside the fabric finish. The
// hook declares quiescence when no ingress holds a packet, every
// reassembly buffer is empty, the packet conservation identity balances,
// and the output word counts have been stable for two consecutive check
// intervals (residual pipeline words flush during the grace interval).
//
// Re-admitting: at that point the fabric is exactly as idle as a freshly
// built router, so every port is reprogrammed through the same
// Router.program that New and Degrade use, with the healthy crossbar
// programs cached from construction (healthy jump-table slots are
// bitwise unchanged in the FT config index, so these are the original
// programs, not regenerations): the dead port's four tiles get their
// firmware back, and every crossbar re-enters the full ring with the
// token at the joining port.
//
// Probation: for ReadmitQuanta quanta the re-admitted port plays the
// full protocol but its egress stays quarantined (rotor.AllocateReadmit)
// and its ingress sends only empty headers. A tile that did not really
// recover can therefore only wedge the header exchange — which the
// re-armed watchdog catches and re-degrades — never corrupt a committed
// stream. When the window expires the hook lifts the ingress probation
// and the port is fully live.

// restoreCheckMask gates the quiescence check to every 256th cycle.
const restoreCheckMask = 256 - 1

// controlKind enumerates scheduled recovery controls (the router-side
// counterpart of the fault grammar's restore@/reprobe@ directives).
type controlKind uint8

const (
	ctlRestore controlKind = iota
	ctlReprobe
)

type control struct {
	cycle int64
	port  int
	kind  controlKind
	fired bool
}

// ScheduleRestore arranges for Restore(port) to run at the given cycle
// (from the step hook, so it is deterministic and checkpoint-replayable;
// a failing Restore — wrong port, not degraded — is a recorded no-op).
func (r *Router) ScheduleRestore(cycle int64, port int) {
	r.controls = append(r.controls, control{cycle: cycle, port: port, kind: ctlRestore})
}

// ScheduleReprobe forces port's next line probe at the given cycle,
// regardless of the backoff schedule (deterministic, like
// ScheduleRestore).
func (r *Router) ScheduleReprobe(cycle int64, port int) {
	r.controls = append(r.controls, control{cycle: cycle, port: port, kind: ctlReprobe})
}

// ScheduleControls schedules a fault schedule's recovery controls, its
// restore@ and reprobe@ directives (the injector skips them). A
// checkpoint replays only on a router that scheduled the same controls
// as the run that wrote it, so every harness schedules them here.
func (r *Router) ScheduleControls(s *fault.Schedule) {
	for _, ctl := range s.Controls() {
		switch ctl.Kind {
		case fault.KindRestore:
			r.ScheduleRestore(ctl.Start, ctl.Tile)
		case fault.KindReprobe:
			r.ScheduleReprobe(ctl.Start, ctl.Tile)
		}
	}
}

// Tick implements raw.StepHook: the router is the chip's single
// observation hook. It runs between cycles, so it may read firmware state
// and reconfigure tiles. Everything here is a few nil checks
// per cycle against sixteen tile steps — and on the fast engine the
// cycles between NextDue boundaries may be covered by macro windows, so
// every observation below is batched to a boundary the hook declares:
// the watchdog to its 1024-cycle check mask, the restore/probation/
// line-event scans to the 256-cycle restoreCheckMask, scheduled controls
// to their exact cycles. Telemetry quantum sampling needs no boundary of
// its own: a quantum counter only advances inside a crossbar processor
// op (advanceToken's boundary closure), which makes that tile busy for
// the cycle, so a macro window can never cover a quantum boundary and
// the per-cycle counter comparison always runs on the boundary cycle.
func (r *Router) Tick(cycle int64) {
	if r.wd != nil {
		r.wd.tick(cycle)
	}
	if len(r.controls) > 0 {
		r.runControls(cycle)
	}
	if r.restoring {
		r.restoreTick(cycle)
	}
	if r.probationPort >= 0 && cycle&restoreCheckMask == 0 {
		if r.xbars[r.reportPort].readmit == 0 {
			r.ings[r.probationPort].probation = false
			r.event(cycle, r.probationPort, trace.EvLive)
			r.probationPort = -1
		}
	}
	if (r.cfg.Events != nil || r.cfg.Metrics != nil) && cycle&restoreCheckMask == 0 {
		for p := 0; p < 4; p++ {
			if down := r.ings[p].lineDown; down != r.lineDownSeen[p] {
				r.lineDownSeen[p] = down
				kind := trace.EvLineUp
				if down {
					kind = trace.EvLineDown
				}
				r.event(cycle, p, kind)
			}
		}
	}
	if r.cfg.Metrics != nil {
		r.sampleTelemetry(cycle)
	}
}

// NextDue implements raw.StepHook: the earliest cycle >= cycle at which
// Tick must observe an individually simulated cycle, or -1 when nothing
// is scheduled. The bounds mirror Tick's own gating exactly: the
// watchdog's next check-mask boundary while it is armed and the router
// has not fail-stopped; the next restoreCheckMask boundary while any
// 256-cycle scan is live (restore drain, probation expiry, or the
// line-state scan armed by Events/Metrics); and every unfired scheduled
// control's cycle. Quantum-coupled observations (telemetry sampling,
// watchdog heartbeat reads) need no bound here — quantum boundaries
// happen inside crossbar processor ops, which the macro-stepper can
// never cover (see Tick).
func (r *Router) NextDue(cycle int64) int64 {
	due := int64(-1)
	add := func(d int64) {
		if d >= cycle && (due < 0 || d < due) {
			due = d
		}
	}
	if r.wd != nil && !r.failed {
		add((cycle + r.wd.checkMask) &^ r.wd.checkMask)
	}
	if r.restoring || r.probationPort >= 0 || r.cfg.Events != nil || r.cfg.Metrics != nil {
		add((cycle + restoreCheckMask) &^ restoreCheckMask)
	}
	for i := range r.controls {
		if c := &r.controls[i]; !c.fired {
			d := c.cycle
			if d < cycle {
				d = cycle
			}
			add(d)
		}
	}
	return due
}

func (r *Router) runControls(cycle int64) {
	for i := range r.controls {
		c := &r.controls[i]
		if c.fired || c.cycle > cycle {
			continue
		}
		c.fired = true
		if c.port < 0 || c.port > 3 {
			continue
		}
		switch c.kind {
		case ctlRestore:
			if err := r.Restore(c.port); err != nil {
				r.event(cycle, c.port, trace.EvRestoreRejected)
			}
		case ctlReprobe:
			r.ings[c.port].reprobeNow = true
		}
	}
}

// event routes one typed recovery event to every armed sink: the
// configured event log and the telemetry flight recorder.
func (r *Router) event(cycle int64, port int, kind trace.EventKind) {
	r.eventDetail(cycle, port, kind, "")
}

func (r *Router) eventDetail(cycle int64, port int, kind trace.EventKind, detail string) {
	if r.cfg.Events != nil {
		r.cfg.Events.AddDetail(cycle, port, kind, detail)
	}
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.RecordEvent(trace.Event{Cycle: cycle, Port: port, Kind: kind, Detail: detail})
	}
}

// Restore begins re-admission of the degraded port: live ingresses stop
// acquiring new packets and the fabric drains; once quiescent, the cycle
// hook completes the reconfiguration at a quantum boundary. Must be
// called between cycles (tests call it directly; scheduled controls and
// the watchdog's AutoRestore call it from the hook). Restore completes
// only after in-flight packets finish — a paused ingress mid-packet
// still needs its line words to arrive.
func (r *Router) Restore(port int) error {
	if r.failed {
		return fmt.Errorf("router: fail-stopped; cannot restore")
	}
	if r.deadPort < 0 {
		return fmt.Errorf("router: not degraded; nothing to restore")
	}
	if port != r.deadPort {
		return fmt.Errorf("router: port %d is not the dead port (%d)", port, r.deadPort)
	}
	if r.restoring {
		return fmt.Errorf("router: restore already in progress")
	}
	r.restoring = true
	r.restoreArmed = false
	for p := 0; p < 4; p++ {
		if p != r.deadPort {
			r.ings[p].pause = true
		}
	}
	r.event(r.Chip.Cycle(), port, trace.EvRestoreDrain)
	return nil
}

// Restoring reports whether a restore is draining toward quiescence.
func (r *Router) Restoring() bool { return r.restoring }

// ProbationPort returns the re-admitted port still in its probation
// window, -1 if none.
func (r *Router) ProbationPort() int { return r.probationPort }

// restoreTick checks drain quiescence every restoreCheckMask+1 cycles
// and completes the restore once the fabric has been provably idle for
// two consecutive checks.
func (r *Router) restoreTick(cycle int64) {
	if cycle&restoreCheckMask != 0 {
		return
	}
	if !r.Quiescent() {
		r.restoreArmed = false
		return
	}
	var cur [4]int64
	for p := range cur {
		cur[p] = r.outs[p].Count()
	}
	if !r.restoreArmed || cur != r.restoreMark {
		// First passing check, or words still trickling out of the
		// pipeline: wait one more interval of stability.
		r.restoreMark = cur
		r.restoreArmed = true
		return
	}
	r.completeRestore(cycle)
}

// Quiescent reports whether nothing is in flight inside the fabric: no
// ingress mid-packet, no partial reassembly, and the conservation
// identity balanced. Line-side state (pending drains, backlogs, down
// lines) is irrelevant — it does not touch fabric reconfiguration. The
// restore state machine drains against it; serve-mode drains poll it
// (together with empty input backlogs) to decide when a checkpoint
// captures a clean boundary. Call between Run calls only.
func (r *Router) Quiescent() bool {
	var in, out int64
	for p := 0; p < 4; p++ {
		if p != r.deadPort {
			if r.ings[p].havePkt || !r.egrs[p].quiet() {
				return false
			}
		}
		in += r.stats.PktsIn[p]
		out += r.stats.PktsOut[p]
	}
	return in == out+r.stats.FabricLost
}

// completeRestore is Degrade in reverse, run between cycles from the
// hook once the fabric is drained: every port programmed healthy (which
// re-installs the parked tiles' firmware), crossbars re-entering the
// four-tile ring in lockstep with the token at the joining port.
func (r *Router) completeRestore(cycle int64) {
	dead := r.deadPort
	readmit := r.readmitQuanta
	for p := 0; p < 4; p++ {
		r.program(p, r.xprogs[p])
		r.xbars[p].restart(r.xprogs[p], -1, dead, dead, readmit)
		r.ings[p].resetForRestore(p == dead, readmit > 0)
		r.egrs[p].resetForDegrade()
	}
	r.deadPort = -1
	r.restoring = false
	r.restoreArmed = false
	if readmit > 0 {
		r.probationPort = dead
	} else {
		r.probationPort = -1
	}
	if r.wd != nil {
		r.wd.rearm(cycle)
	}
	r.event(cycle, dead, trace.EvReadmit)
}

// failStop stops the router for good on a condition the watchdog cannot
// recover from — a wedge it cannot mask as one hole, or a degrade or
// restore that will not start — and records the error as the fail-stop
// event's detail. It ends any restore drain, so a failed router never
// completes one.
func (r *Router) failStop(cycle int64, port int, err error) {
	r.failed = true
	r.restoring = false
	r.eventDetail(cycle, port, trace.EvFailStop, err.Error())
}
