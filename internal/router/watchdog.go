package router

import (
	"errors"
	"fmt"

	"repro/internal/raw"
	"repro/internal/trace"
)

// The quantum-progress watchdog (robustness extension). The Rotating
// Crossbar's liveness invariant is that quanta keep completing: even a
// fully idle router exchanges empty headers and advances the token every
// round, so total quantum count across the live crossbar tiles is a
// heartbeat of the whole fabric. If it stops advancing for
// WatchdogCycles, something is wedged. The watchdog then tries to
// attribute the wedge to a single crossbar tile whose processor has not
// been stepped across a probe interval — the signature of a crashed or
// frozen tile, whose micro-op executor the chip skips entirely. An
// attributable wedge triggers degraded-mode reconfiguration
// (Router.Degrade); an unattributable one, or a second wedge after
// degrading, fail-stops the router (Failed reports true).
//
// The check is two-phase so the healthy path stays cheap: every check
// interval it reads only the four quantum counters. Only when those
// stall past the limit does it snapshot per-tile heartbeats (probing),
// wait one more interval, and attribute the wedge to the processor whose
// heartbeat did not move.
type watchdog struct {
	rt *Router

	// checkMask gates the (cheap) progress check to every 1024th cycle.
	checkMask int64
	limit     int64

	lastProgress int64
	lastChange   int64

	// probing is set after a stall is detected; hbProbe holds the
	// heartbeat snapshot the next check attributes against.
	probing bool
	hbProbe [4]int64

	// deadHB is the parked dead-port crossbar processor's heartbeat at
	// degrade time. A frozen tile is never stepped, so movement here
	// means the tile thawed — the AutoRestore trigger.
	deadHB int64
}

func (r *Router) installWatchdog() {
	r.wd = &watchdog{
		rt:           r,
		checkMask:    1024 - 1,
		limit:        r.cfg.WatchdogCycles,
		lastProgress: -1, // force a baseline on the first check
	}
}

// heartbeat sums a tile processor's state counters; the sum advances
// once per cycle the tile is stepped, so it freezes exactly when the
// fault plane freezes the tile.
func heartbeat(e *raw.Exec) int64 {
	var s int64
	for _, v := range e.StateCounts() {
		s += v
	}
	return s
}

// rearm restarts the watchdog clock (after Degrade reshapes the fabric
// or a restore re-admits the dead port: the old progress baseline is
// meaningless for the new configuration).
func (w *watchdog) rearm(cycle int64) {
	w.lastProgress = -1
	w.lastChange = cycle
	w.probing = false
}

// noteDegrade records the parked processor's heartbeat baseline for the
// AutoRestore thaw check and rearms the clock for the three-tile fabric.
func (w *watchdog) noteDegrade(dead int, cycle int64) {
	w.deadHB = heartbeat(w.rt.Chip.Tile(Layout[dead].Crossbar).Exec())
	w.rearm(cycle)
}

// tick runs between cycles (via the router's step-hook dispatcher,
// Router.Tick), so it may read firmware state and reconfigure tiles.
// Both phases of the check read only quantum counters and heartbeat
// sums — quantities the fast engine's macro restore advances exactly as
// per-cycle stepping would (a window of K cycles adds K to a blocked
// tile's state counts and leaves quantum counters alone, since
// boundaries are never covered) — and both run only on check-mask
// cycles, which the router's NextDue keeps individually stepped. The watchdog therefore observes
// bit-identical values on either engine.
func (w *watchdog) tick(cycle int64) {
	if cycle&w.checkMask != 0 || w.rt.failed {
		return
	}
	r := w.rt
	if r.deadPort >= 0 && r.cfg.AutoRestore && !r.restoring {
		if heartbeat(r.Chip.Tile(Layout[r.deadPort].Crossbar).Exec()) != w.deadHB {
			// The parked processor is being stepped again: the frozen
			// tile thawed. Begin re-admission (cannot fail here: the
			// router is degraded, not failed, and not restoring).
			if err := r.Restore(r.deadPort); err != nil {
				r.failStop(cycle, r.deadPort, err)
			}
			return
		}
	}
	var progress int64
	for p := 0; p < 4; p++ {
		if p == r.deadPort {
			continue
		}
		progress += r.xbars[p].quantum
	}
	if progress != w.lastProgress {
		w.lastProgress = progress
		w.lastChange = cycle
		w.probing = false
		return
	}
	if cycle-w.lastChange < w.limit {
		return
	}
	if !w.probing {
		// Stalled past the limit. Snapshot heartbeats and give the fabric
		// one more check interval: a live processor keeps being stepped
		// (even while stalled on the network), a frozen one does not.
		w.probing = true
		for p := 0; p < 4; p++ {
			if p == r.deadPort {
				continue
			}
			w.hbProbe[p] = heartbeat(r.Chip.Tile(Layout[p].Crossbar).Exec())
		}
		return
	}
	// Attribute: which crossbar processor stopped being stepped?
	dead := -1
	for p := 0; p < 4; p++ {
		if p == r.deadPort {
			continue
		}
		if heartbeat(r.Chip.Tile(Layout[p].Crossbar).Exec()) == w.hbProbe[p] {
			if dead >= 0 {
				dead = -1 // more than one: cannot mask a single hole
				break
			}
			dead = p
		}
	}
	switch {
	case dead < 0:
		r.failStop(cycle, -1, errors.New("router: wedge not attributable to one crossbar tile"))
	case r.deadPort >= 0:
		r.failStop(cycle, dead, fmt.Errorf("router: crossbar %d wedged with port %d already degraded", dead, r.deadPort))
	default:
		if err := r.Degrade(dead); err != nil {
			r.failStop(cycle, dead, err)
		}
	}
}

// Degrade masks port dead's crossbar tile out of the token rotation and
// reconfigures the three survivors for degraded operation. Must be
// called between cycles (the watchdog calls it from the chip's cycle
// hook; tests may call it directly before or between Run calls).
//
// The procedure is fail-stop at the fabric boundary: every packet fully
// streamed into the fabric but not yet delivered is discarded and
// counted in Stats.FabricLost; every packet in flight at a surviving
// ingress is aborted (Stats.AbortDropped) and its remaining line words
// drained; output streams truncated mid-packet at the pins are recorded
// so DrainOutput can skip the orphan words. The dead port's four tiles
// are parked; the survivors' switches get regenerated degraded programs
// and their firmware restarts from clean per-quantum state.
func (r *Router) Degrade(dead int) error {
	if dead < 0 || dead > 3 {
		return fmt.Errorf("router: bad dead port %d", dead)
	}
	if r.failed {
		return fmt.Errorf("router: fail-stopped; cannot degrade")
	}
	if r.deadPort >= 0 {
		return fmt.Errorf("router: already degraded (port %d dead)", r.deadPort)
	}
	if r.cfg.Multicast {
		return fmt.Errorf("router: degraded mode supports unicast only")
	}
	r.deadPort = dead
	r.probationPort = -1

	// Fail-stop accounting: everything inside the fabric is lost.
	var in, out int64
	for p := 0; p < 4; p++ {
		in += r.stats.PktsIn[p]
		out += r.stats.PktsOut[p]
	}
	if in > out {
		r.stats.FabricLost += in - out
	}
	for p := 0; p < 4; p++ {
		r.cuts[p] = append(r.cuts[p], r.outs[p].Count())
	}
	if r.reportPort == dead {
		r.reportPort = (dead + 1) % 4
	}

	// Park the dead port's pipeline. Its crossbar tile may be frozen (the
	// usual reason we are here) — reprogramming it is a no-op until it
	// thaws, at which point the park program blocks it harmlessly.
	if f := r.ings[dead]; f.havePkt {
		r.stats.AbortDropped[dead]++
		f.havePkt = false
	}
	r.ings[dead].lineDown = true
	r.program(dead, nil)

	// Reconfigure the survivors.
	for p := 0; p < 4; p++ {
		if p == dead {
			continue
		}
		xprog, err := GenXbarProgramDegraded(p, r.ci, dead)
		if err != nil {
			return err
		}
		r.program(p, xprog)
		r.xbars[p].restart(xprog, dead, (dead+1)%4, -1, 0)
		r.ings[p].resetForDegrade(dead)
		r.egrs[p].resetForDegrade()
	}
	if r.wd != nil {
		r.wd.noteDegrade(dead, r.Chip.Cycle())
	}
	r.event(r.Chip.Cycle(), dead, trace.EvDegrade)
	return nil
}

// DeadPort returns the masked-out port in degraded mode, -1 if healthy.
func (r *Router) DeadPort() int { return r.deadPort }

// Failed reports whether the watchdog fail-stopped the router (a second
// wedge after degrading, or a wedge it could not attribute to one tile).
func (r *Router) Failed() bool { return r.failed }

// LineDown reports whether port p's ingress declared its input line dead
// (underrun-timeout strikes exhausted, or the port's crossbar died).
func (r *Router) LineDown(p int) bool { return r.ings[p].lineDown }

// InFlightAtIngress returns how many accepted packets port p's ingress
// currently holds (0 or 1) — the in-flight term of the conservation
// identity chaos testing checks.
func (r *Router) InFlightAtIngress(p int) int {
	if r.ings[p].havePkt {
		return 1
	}
	return 0
}

// PendingDrainWords returns how many line words port p's ingress still
// owes to an aborted packet's drain.
func (r *Router) PendingDrainWords(p int) int { return r.ings[p].pendingDrain }

// Quanta returns crossbar tile p's completed quantum count.
func (r *Router) Quanta(p int) int64 { return r.xbars[p].quantum }
