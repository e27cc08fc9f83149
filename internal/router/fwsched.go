package router

// Firmware steadiness tables. Each of the four firmware state machines
// (ingress, crossbar, egress, lookup) names its phases with the
// constants below, and each kind has one table marking which phases
// present a constant per-cycle profile to the chip (steady: every
// queued micro-op either blocks without side effects or moves words at
// one cycle per word) and which do not (multi-cycle-per-word buffering,
// cache probes, cryptographic transforms). Steadiness does not depend
// on the router configuration, so the tables are package-level and a
// tile re-entering service after degrade, restore or park presents the
// same profile as before. The fast engine's macro-stepper consults them
// through raw.SteadyFirmware: a tile blocked mid-quantum in a steady
// phase may be covered by a macro window; a non-steady phase falls back
// to per-cycle stepping.

// Ingress firmware phases.
const (
	ingPhaseIdle = iota
	ingPhaseAcquire
	ingPhaseQuantum
	ingPhaseStream
	ingPhaseDrain
	ingPhaseDown
	ingPhaseIngest
	ingPhaseMcastStream
)

// ingSteady marks the steady ingress phases.
var ingSteady = [...]bool{
	// Waiting for line words or playing the empty-header protocol:
	// blocks on the grant exchange, moves nothing.
	ingPhaseIdle: true,
	// Header read (5 words), verify/update, lookup exchange.
	ingPhaseAcquire: true,
	// Per-quantum header/grant exchange: a handful of protocol words,
	// then blocked on the grant.
	ingPhaseQuantum: true,
	// Granted fragment streaming: one word per cycle line-to-fabric
	// cut-through (the paper's peak-rate path).
	ingPhaseStream: true,
	// Aborted-packet drain: discards line words at one per cycle.
	ingPhaseDrain: true,
	// Line declared down: idle quanta plus the reprobe schedule.
	ingPhaseDown: true,
	// Multicast payload ingest into local data memory: two cycles per
	// word (§4.4) — not a constant one-word-per-cycle rate.
	ingPhaseIngest: false,
	// Multicast replay out of local memory: one word per cycle.
	ingPhaseMcastStream: true,
}

// Crossbar firmware phases.
const (
	xbarPhaseHdr = iota
	xbarPhaseStream
)

// xbarSteady marks the steady crossbar phases.
var xbarSteady = [...]bool{
	// Rotated-header collection and the jump-table index computation.
	xbarPhaseHdr: true,
	// Grant/egress-header dispatch, then blocked on the switch
	// confirmation while the routine streams the quantum.
	xbarPhaseStream: true,
}

// Egress firmware phases.
const (
	egrPhaseHdr = iota
	egrPhaseCut
	egrPhaseAsm
	egrPhaseOut
	egrPhaseCrypto
)

// egrSteady marks the steady egress phases.
var egrSteady = [...]bool{
	// Blocked on the next egress header (stalls across idle quanta).
	egrPhaseHdr: true,
	// Whole-packet cut-through: switch streams pin-ward at one word per
	// cycle, processor drains padding at the same rate.
	egrPhaseCut: true,
	// Fragment reassembly into local data memory: two cycles per word
	// (§4.4).
	egrPhaseAsm: false,
	// Reassembled-packet playback from local memory.
	egrPhaseOut: false,
	// §8.3 decrypt-and-forward: per-word cipher cost on top of the word
	// moves.
	egrPhaseCrypto: false,
}

// Lookup firmware phases.
const (
	lkPhaseAwait = iota
	lkPhaseProbe
)

// lkSteady marks the steady lookup phases.
var lkSteady = [...]bool{
	// Blocked waiting for the next destination from the ingress.
	lkPhaseAwait: true,
	// Table probe(s) through the data cache: a miss burns a DRAM round
	// trip mid-phase.
	lkPhaseProbe: false,
}
