package raw

// Observation hooks and the macro-step disarm vocabulary.
//
// A step hook (AddStepHook) is the chip's one observation mechanism. It
// declares, through NextDue, the next cycle at which it must observe the
// chip. Between due cycles the hook is provably inert, so the
// macro-stepper may cover the gap in one window, clamping the window so
// the due cycle itself is always single-stepped (and the hook's Tick
// fires exactly as it would have under per-cycle stepping).
//
// The router's supervisor (watchdog heartbeat, restore controls,
// telemetry sampling) is a StepHook: all of its work is batched to
// quantum or mask boundaries, which is what lets macro windows form on a
// live router.

// StepHook is a capability-scoped observation hook. Tick runs at the end
// of every simulated cycle (after queue commits and device ticks) and may
// safely reconfigure the chip. NextDue(cycle) returns the earliest cycle
// >= cycle at which this hook must observe an individually simulated
// cycle, or a negative value if it has no scheduled work; the
// macro-stepper never covers a due cycle with a window. A hook whose due
// cycles depend on chip state must return conservative (early) values —
// returning cycle itself is always safe and simply forces
// single-stepping.
type StepHook interface {
	Tick(cycle int64)
	NextDue(cycle int64) int64
}

// AddStepHook registers a step hook. Hooks run in registration order.
// Must be called between cycles.
func (c *Chip) AddStepHook(h StepHook) {
	c.stepHooks = append(c.stepHooks, h)
	c.invalidateFast()
}

// DeviceQuiescer is an optional DynDevice extension. DevQuiesced reports
// that the device holds no buffered input, no queued requests, and no
// in-flight responses: Tick with no arrivals returns nothing and mutates
// nothing, this cycle and every following one, until new words reach it.
// The macro-stepper treats a quiescent device's binding as inert (K
// skipped Ticks are a no-op); devices that cannot promise this simply
// don't implement the interface and keep macro-stepping disarmed while
// attached.
type DeviceQuiescer interface {
	DevQuiesced() bool
}

// MacroCause classifies why tryMacroStep declined to open a window. The
// per-cause histogram (MacroDisarms) makes engagement regressions
// diagnosable: a router that should be macro-stepping but isn't will show
// which gate fired.
type MacroCause uint8

const (
	// MacroBudget: the caller's remaining cycle budget was below the
	// minimum worthwhile window.
	MacroBudget MacroCause = iota
	// MacroFaults: a fault plane is installed; fault schedules perturb
	// individual cycles.
	MacroFaults
	// MacroPerCycleHook is no longer counted: the per-cycle hook it
	// attributed was removed, leaving step hooks (MacroHookDue) as the one
	// hook mechanism. The value keeps its histogram slot so exported
	// cause names and indices stay stable.
	MacroPerCycleHook
	// MacroTracer: a per-cycle tracer is configured.
	MacroTracer
	// MacroDevices: an attached dynamic device is not provably quiescent
	// (pending output words, or no DeviceQuiescer implementation).
	MacroDevices
	// MacroHookDue: a step hook is due this cycle, or its next due cycle
	// clamps the window below the minimum.
	MacroHookDue
	// MacroExecBusy: a tile processor is mid-operation (computing, moving
	// words, or about to refill) rather than provably blocked or idle.
	MacroExecBusy
	// MacroFirmware: a tile's firmware is neither quiesced nor in a
	// declared steady state (see SteadyFirmware).
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
