package raw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// Deterministic checkpoint/restore (robustness extension). The simulator
// is a deterministic function of its construction (firmware, switch
// programs, fault plane) and the words pushed into its boundary static
// inputs, so a checkpoint does not serialize tile state — micro-op
// batches hold Then continuations and completion callbacks, which cannot
// be marshaled — it records the inputs.
// A chip with recording enabled logs every external StaticIn.Push with
// its cycle stamp (before the fault plane's drop check, so injected edge
// drops replay too). Snapshot emits a versioned blob holding the chip
// geometry, the cycle count, the input log, and a state digest;
// RestoreSnapshot replays the log into a freshly constructed identical
// chip and verifies the digest, leaving the chip bit-for-bit in the
// checkpointed state. Verified state includes every bounded FIFO,
// edge FIFO, switch, and processor counter the digest covers; replay
// correctness itself comes from determinism, the digest is the tripwire.

const rawSnapMagic = "RAWCKPT1"

// inputRec is one recorded external push: which boundary input, when,
// and what word.
type inputRec struct {
	cycle int64
	tile  uint16
	dir   uint8
	net   uint8
	word  Word
}

type recorder struct {
	// active gates logging; cleared while RestoreSnapshot replays so the
	// replayed pushes are not re-recorded (the original log is adopted
	// wholesale afterwards).
	active bool
	log    []inputRec
}

// EnableRecording starts logging external static-input pushes so the
// chip can Snapshot. Must be called before the first cycle runs — the
// log must cover the chip's whole input history. Idempotent.
func (c *Chip) EnableRecording() error {
	if c.rec != nil {
		return nil
	}
	if c.cycle != 0 {
		return errors.New("raw: recording must be enabled before the first cycle")
	}
	c.rec = &recorder{active: true}
	return nil
}

// Snapshot serializes the chip's checkpoint: geometry, cycle, the full
// input log, and a state digest. Call it between cycles (never from
// firmware or a cycle hook's reconfiguration window). The blob restores
// only into a chip constructed identically — same geometry, firmware,
// switch programs, and fault plane.
func (c *Chip) Snapshot() ([]byte, error) {
	if c.rec == nil {
		return nil, errors.New("raw: Snapshot requires EnableRecording before the first cycle")
	}
	log := c.rec.log
	le := binary.LittleEndian
	buf := make([]byte, 0, 48+len(log)*16)
	buf = append(buf, rawSnapMagic...)
	buf = le.AppendUint32(buf, 1) // version
	buf = le.AppendUint32(buf, uint32(c.cfg.Width))
	buf = le.AppendUint32(buf, uint32(c.cfg.Height))
	buf = le.AppendUint64(buf, math.Float64bits(c.cfg.ClockHz))
	buf = le.AppendUint64(buf, uint64(c.cycle))
	buf = le.AppendUint64(buf, uint64(len(log)))
	for _, e := range log {
		buf = le.AppendUint64(buf, uint64(e.cycle))
		buf = le.AppendUint16(buf, e.tile)
		buf = append(buf, e.dir, e.net)
		buf = le.AppendUint32(buf, uint32(e.word))
	}
	buf = le.AppendUint64(buf, c.digest())
	return buf, nil
}

// ReplayOp is an externally owned side effect to re-apply during
// snapshot replay: harness actions outside the input log (a DRAM table
// poke, for example) that the original run performed between cycles.
// Apply runs when the replay reaches Cycle, before that cycle's recorded
// pushes; ops with Cycle at or past the checkpoint run after the replay
// loop. Callers pass ops sorted by Cycle.
type ReplayOp struct {
	Cycle int64
	Apply func()
}

// RestoreSnapshot rebuilds the checkpointed state by replaying the
// blob's input log on this chip, which must be freshly constructed
// (cycle 0) and configured identically to the chip that took the
// snapshot. On success the chip stands at the checkpoint cycle with the
// digest verified, recording re-enabled, and the log adopted, so a
// further Snapshot of an identical continuation is byte-identical.
func (c *Chip) RestoreSnapshot(blob []byte) error {
	return c.RestoreSnapshotOps(blob, nil)
}

// RestoreSnapshotOps is RestoreSnapshot with external side effects
// interleaved: each op's Apply runs when the replay reaches its cycle,
// so harness state the input log cannot carry (mid-run forwarding-table
// pokes) is re-established at the same simulation points as the
// original run.
func (c *Chip) RestoreSnapshotOps(blob []byte, ops []ReplayOp) error {
	if c.cycle != 0 {
		return errors.New("raw: RestoreSnapshot requires a freshly constructed chip")
	}
	if c.rec != nil && len(c.rec.log) > 0 {
		return errors.New("raw: RestoreSnapshot after inputs were already pushed")
	}
	r := wire.NewReader(blob)
	if !r.Magic(rawSnapMagic) {
		return errors.New("raw: bad snapshot magic")
	}
	version := r.U32()
	w, h := int(r.U32()), int(r.U32())
	clock := math.Float64frombits(r.U64())
	snapCycle := int64(r.U64())
	log := make([]inputRec, r.Count(16))
	if err := r.Err(); err != nil {
		return fmt.Errorf("raw: corrupt snapshot header: %w", err)
	}
	if version != 1 {
		return fmt.Errorf("raw: unsupported snapshot version %d", version)
	}
	if w != c.cfg.Width || h != c.cfg.Height || clock != c.cfg.ClockHz {
		return fmt.Errorf("raw: snapshot geometry %dx%d@%g does not match chip %dx%d@%g",
			w, h, clock, c.cfg.Width, c.cfg.Height, c.cfg.ClockHz)
	}
	var prev int64
	for i := range log {
		e := inputRec{cycle: int64(r.U64()), tile: r.U16(), dir: r.U8(), net: r.U8(), word: Word(r.U32())}
		if e.cycle < prev || e.cycle > snapCycle {
			return fmt.Errorf("raw: snapshot log entry %d out of order", i)
		}
		if _, ok := c.staticIn[[3]int{int(e.tile), int(e.dir), int(e.net)}]; !ok {
			return fmt.Errorf("raw: snapshot log entry %d names a non-boundary input", i)
		}
		prev = e.cycle
		log[i] = e
	}
	wantDigest := r.U64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("raw: corrupt snapshot: %w", err)
	}

	rec := &recorder{}
	c.rec = rec
	i, oi := 0, 0
	for c.cycle < snapCycle {
		for oi < len(ops) && ops[oi].Cycle <= c.cycle {
			ops[oi].Apply()
			oi++
		}
		for i < len(log) && log[i].cycle == c.cycle {
			e := log[i]
			c.staticIn[[3]int{int(e.tile), int(e.dir), int(e.net)}].Push(e.word)
			i++
		}
		c.Step()
	}
	for ; oi < len(ops); oi++ {
		ops[oi].Apply()
	}
	for ; i < len(log); i++ {
		e := log[i]
		c.staticIn[[3]int{int(e.tile), int(e.dir), int(e.net)}].Push(e.word)
	}
	if got := c.digest(); got != wantDigest {
		return fmt.Errorf("raw: snapshot digest mismatch after replay: %#x != %#x", got, wantDigest)
	}
	rec.log = log
	rec.active = true
	return nil
}

// digest folds the chip's observable simulation state into an FNV-64a
// hash: cycle count, every bounded FIFO's committed content (in
// construction order), every edge FIFO's stream position and backlog,
// and per tile the processor's state counters and batch position, both
// switches' program counters and counters, boundary sink totals, and
// cache statistics. Taken between cycles, when staged words are empty.
func (c *Chip) digest() uint64 {
	c.settle()
	d := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			d ^= v & 0xff
			d *= 1099511628211
			v >>= 8
		}
	}
	b2i := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(uint64(c.cycle))
	for _, f := range c.bounded {
		mix(uint64(len(f.buf) - f.head))
		for _, w := range f.buf[f.head:] {
			mix(uint64(w))
		}
	}
	for _, q := range c.edges {
		mix(uint64(q.taken))
		mix(uint64(len(q.buf) - q.head))
		for _, w := range q.buf[q.head:] {
			mix(uint64(w))
		}
	}
	for _, t := range c.tiles {
		mix(uint64(t.exec.state))
		mix(uint64(t.exec.head))
		mix(uint64(len(t.exec.ops)))
		for _, v := range t.exec.counts {
			mix(uint64(v))
		}
		for n := range t.st {
			sw := &t.st[n].sw
			mix(uint64(sw.pc))
			mix(uint64(int64(sw.remaining)))
			mix(b2i(sw.loaded))
			mix(b2i(sw.halted))
			mix(uint64(sw.stalls))
			mix(uint64(sw.moves))
			for dir := range t.st[n].edgeOut {
				if s := t.st[n].edgeOut[dir]; s != nil {
					mix(uint64(s.total))
				}
			}
		}
		if t.cache != nil {
			mix(uint64(t.cache.hits))
			mix(uint64(t.cache.misses))
		}
	}
	return d
}
