package raw

import "fmt"

// Engine selects the chip's cycle-stepping implementation. Both engines
// simulate the same machine over the same state — every counter, queue,
// checkpoint digest, and telemetry snapshot is bit-for-bit identical —
// so the choice is purely a host-performance knob, and it may be changed
// between cycles (even mid-run: a chip stepped half under one engine and
// half under the other matches a chip stepped wholly under either).
type Engine uint8

const (
	// EngineRef is the reference interpreter: it walks []SwInstr route
	// slices and dispatches queue operations through interfaces every
	// cycle. It is the oracle the fast engine is verified against.
	EngineRef Engine = iota
	// EngineFast is the compiled engine: switch programs are flattened
	// into dense per-pc route tables at install time, queue endpoints are
	// resolved to concrete ring buffers once per configuration, and
	// windows in which every processor is idle or blocked and every
	// switch streams, stalls or has halted advance many cycles per
	// dispatch (see macro.go).
	EngineFast
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	switch e {
	case EngineRef:
		return "ref"
	case EngineFast:
		return "fast"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine parses a -engine flag value. The empty string selects the
// reference engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "ref":
		return EngineRef, nil
	case "fast":
		return EngineFast, nil
	}
	return EngineRef, fmt.Errorf("raw: unknown engine %q (have ref, fast)", s)
}

// SetEngine switches the cycle-stepping implementation. Must be called
// between cycles.
func (c *Chip) SetEngine(e Engine) {
	if c.engine == e {
		return
	}
	c.invalidateFast()
	c.engine = e
}

// Engine returns the active cycle-stepping implementation.
func (c *Chip) Engine() Engine { return c.engine }

// invalidateFast marks the fast engine's derived state (queue bindings,
// compiled-program attachments, cached firmware capabilities) stale,
// after waking every parked tile so its counters are exact under either
// engine. Every reconfiguration entry point — reprogramming, firmware
// swaps, device attachment, fault installation, hook registration,
// engine switches — calls it before changing anything (a parked tile's
// skipped steps accrue against the state it parked in), between cycles
// or from a step hook, and the next fast Step rebuilds. Cheap enough to
// call unconditionally.
func (c *Chip) invalidateFast() {
	if c.fe != nil {
		c.fe.wakeAll(c.fe.now())
	}
	c.feDirty = true
}

// ensureFast returns the fast engine's derived state, rebuilding it if a
// reconfiguration invalidated it. Must be called between cycles (or at
// the top of Step, before any tile moves).
func (c *Chip) ensureFast() *fastEngine {
	if c.fe == nil || c.feDirty {
		c.fe = buildFastEngine(c)
		c.feDirty = false
	}
	return c.fe
}
