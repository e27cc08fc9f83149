package raw

// Observation hooks and the macro-step disarm vocabulary.

// Due is the chip's one due-cycle contract, answered by step hooks, the
// fault plane, off-chip devices and the tracer: NextDue(cycle) is the
// earliest cycle >= cycle the declarer must see individually simulated
// (never covered by a macro window), or negative if none is scheduled.
// Returning cycle itself is always safe and forces single-stepping.
type Due interface {
	NextDue(cycle int64) int64
}

// StepHook is a capability-scoped observation hook. Tick runs at the end
// of every simulated cycle (after queue commits and device ticks) and may
// safely reconfigure the chip. The router's supervisor (watchdog, restore
// controls, telemetry) is one: it batches its work to quantum or mask
// boundaries, which is what lets macro windows form on a live router.
type StepHook interface {
	Due
	Tick(cycle int64)
}

// AddStepHook registers a step hook. Hooks run in registration order.
// Must be called between cycles.
func (c *Chip) AddStepHook(h StepHook) {
	c.invalidateFast()
	c.stepHooks = append(c.stepHooks, h)
}

// MacroCause classifies why tryMacroStep declined to open a window. The
// per-cause histogram (MacroDisarms) makes engagement regressions
// diagnosable: a router that should be macro-stepping but isn't will show
// which gate fired. A decline counts the first gate that fails: the
// budget, a busy processor (the cheapest and most frequent refusal), the
// declarer that set the tightest clamp, then the rest of the scan.
type MacroCause uint8

const (
	// MacroBudget: the caller's remaining cycle budget was below the
	// minimum worthwhile window.
	MacroBudget MacroCause = iota
	// MacroFaults: a fault is active, or the next fault starts within
	// the minimum window.
	MacroFaults
	// MacroPerCycleHook is no longer counted: the per-cycle hook it
	// attributed was removed, leaving step hooks (MacroHookDue) as the one
	// hook mechanism. The value keeps its histogram slot so exported
	// cause names and indices stay stable.
	MacroPerCycleHook
	// MacroTracer: the tracer records this cycle or one within the minimum.
	MacroTracer
	// MacroDevices: an attached dynamic device is due (mid-frame, or with
	// requests queued or in flight).
	MacroDevices
	// MacroHookDue: a step hook is due this cycle, or its next due cycle
	// clamps the window below the minimum.
	MacroHookDue
	// MacroExecBusy: a tile processor is mid-operation (computing, moving
	// words, or about to refill) rather than provably blocked or idle.
	MacroExecBusy
	// MacroFirmware: a tile's live (not quiesced) firmware has nothing
	// queued, so its processor would refill next cycle.
	MacroFirmware
	// MacroDynActive: a dynamic router has an active worm or a pending
	// input word.
	MacroDynActive
	// MacroSwitchState: a static switch is at an instruction the window
	// analysis cannot freeze or stream (about to halt, jump, load a
	// count, or fire a one-shot or processor-coupled route).
	MacroSwitchState
	// MacroFlowBound: the per-queue flow analysis bounded the window
	// below the minimum worthwhile size.
	MacroFlowBound

	numMacroCauses
)

// String returns a stable, export-friendly name for the cause.
func (m MacroCause) String() string {
	switch m {
	case MacroBudget:
		return "budget"
	case MacroFaults:
		return "faults"
	case MacroPerCycleHook:
		return "per_cycle_hook"
	case MacroTracer:
		return "tracer"
	case MacroDevices:
		return "devices"
	case MacroHookDue:
		return "hook_due"
	case MacroExecBusy:
		return "exec_busy"
	case MacroFirmware:
		return "firmware"
	case MacroDynActive:
		return "dyn_active"
	case MacroSwitchState:
		return "switch_state"
	case MacroFlowBound:
		return "flow_bound"
	}
	return "unknown"
}

// NumMacroCauses is the number of distinct disarm causes (the length of
// the MacroDisarms histogram).
const NumMacroCauses = int(numMacroCauses)

// MacroCauses lists every disarm cause in histogram order (for exporters
// that want a stable iteration order).
func MacroCauses() []MacroCause {
	out := make([]MacroCause, NumMacroCauses)
	for i := range out {
		out[i] = MacroCause(i)
	}
	return out
}

// MacroDisarms returns the per-cause count of macro-step windows declined
// since construction, indexed by MacroCause. Always zero under the
// reference engine; like MacroStats it is host-engine observability, not
// part of the equivalence surface.
func (c *Chip) MacroDisarms() [NumMacroCauses]int64 { return c.macroDisarms }
