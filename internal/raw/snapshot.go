package raw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// Deterministic checkpoint/restore (robustness extension). The simulator
// is a deterministic function of its construction (firmware, switch
// programs, fault plane) and the words pushed into its boundary static
// inputs, so a checkpoint records the inputs instead of serializing tile
// state: queued micro-ops still point into firmware memory (a Recv's
// destination *Word, a SendN's or RecvN's []Word), which a blob cannot
// carry.
// A chip with recording enabled logs every external StaticIn.Push with
// its cycle stamp (before the fault plane's drop check, so injected edge
// drops replay too). Snapshot emits a versioned blob holding the chip
// geometry, the cycle count, the input log, and a state digest;
// RestoreSnapshot replays the log into a freshly constructed identical
// chip and verifies the digest, leaving the chip bit-for-bit in the
// checkpointed state. Verified state includes every bounded FIFO,
// edge FIFO, switch, and processor counter the digest covers; replay
// correctness itself comes from determinism, the digest is the tripwire.
//
//	RAWCKPT1 | u32 version | u32 width | u32 height | u64 clock bits |
//	u64 cycle | u64 count | count × record | u64 digest
//
// A record is u64 cycle, u16 tile, u8 dir, u8 net, u32 word. The log is
// kept in exactly that form, so a snapshot writes it as it stands.

const (
	rawSnapMagic = "RAWCKPT1"
	// rawHeaderLen is the blob's length before its first record.
	rawHeaderLen = len(rawSnapMagic) + 3*4 + 3*8
	// recLen is one record's length.
	recLen = 16
	// logChunk is the capacity of one block of the input log. The log
	// grows a block at a time, so it is never copied as it grows.
	logChunk = 1 << 20
)

// recorder is the chip's input log, in RAWCKPT1's record form.
type recorder struct {
	// active gates logging; cleared while RestoreSnapshot replays so the
	// replayed pushes are not re-recorded (the original log is adopted
	// wholesale afterwards).
	active bool
	// chunks hold the records, logChunk bytes each; only the last may be
	// partly filled. The first is allocated at the first push.
	chunks [][]byte
	n      int // records logged
}

// add logs words pushed at cycle into the boundary input (tile, dir,
// net), one record each.
func (r *recorder) add(cycle int64, tile int, dir Dir, net int, words []Word) {
	var b [recLen]byte
	le := binary.LittleEndian
	le.PutUint64(b[:], uint64(cycle))
	in := uint64(tile) | uint64(dir)<<16 | uint64(net)<<24
	for _, w := range words {
		le.PutUint64(b[8:], in|uint64(w)<<32)
		r.write(b[:])
	}
}

// write appends whole records' bytes to the log.
func (r *recorder) write(b []byte) {
	r.n += len(b) / recLen
	for len(b) > 0 {
		last := len(r.chunks) - 1
		if last < 0 || len(r.chunks[last]) == logChunk {
			r.chunks = append(r.chunks, make([]byte, 0, logChunk))
			last++
		}
		c := r.chunks[last]
		n := copy(c[len(c):logChunk], b)
		r.chunks[last] = c[:len(c)+n]
		b = b[n:]
	}
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

// Snapshot returns the chip's checkpoint: geometry, cycle, the full
// input log, and a state digest. Call it between cycles (never from
// firmware or a cycle hook's reconfiguration window). The blob restores
// only into a chip constructed identically — same geometry, firmware,
// switch programs, and fault plane.
func (c *Chip) Snapshot() ([]byte, error) {
	return wire.Encode(c.SnapshotLen(), c.WriteSnapshot)
}

// SnapshotLen returns the length of the blob Snapshot returns.
func (c *Chip) SnapshotLen() int {
	n := 0
	if c.rec != nil {
		n = c.rec.n
	}
	return rawHeaderLen + n*recLen + 8
}

// WriteSnapshot writes the blob Snapshot returns to w, the input log
// straight from its blocks.
func (c *Chip) WriteSnapshot(w io.Writer) error {
	if c.rec == nil {
		return errors.New("raw: Snapshot requires EnableRecording before the first cycle")
	}
	le := binary.LittleEndian
	b := append(make([]byte, 0, rawHeaderLen), rawSnapMagic...)
	b = le.AppendUint32(b, 1) // version
	b = le.AppendUint32(b, uint32(c.cfg.Width))
	b = le.AppendUint32(b, uint32(c.cfg.Height))
	b = le.AppendUint64(b, math.Float64bits(c.cfg.ClockHz))
	b = le.AppendUint64(b, uint64(c.cycle))
	b = le.AppendUint64(b, uint64(c.rec.n))
	if _, err := w.Write(b); err != nil {
		return err
	}
	for _, chunk := range c.rec.chunks {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	_, err := w.Write(le.AppendUint64(b[:0], c.digest()))
	return err
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
	if c.rec != nil && c.rec.n > 0 {
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
	n := r.Count(recLen)
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
	// The records are read in place: checked here, replayed below, and
	// finally copied into the log as they are.
	recs := r.Bytes(n * recLen)
	var prev int64
	for i := 0; i < n; i++ {
		cyc, in := record(recs, i)
		if cyc < prev || cyc > snapCycle {
			return fmt.Errorf("raw: snapshot log entry %d out of order", i)
		}
		if c.recordInput(in) == nil {
			return fmt.Errorf("raw: snapshot log entry %d names a non-boundary input", i)
		}
		prev = cyc
	}
	wantDigest := r.U64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("raw: corrupt snapshot: %w", err)
	}

	rec := &recorder{}
	c.rec = rec
	i, oi := 0, 0
	for {
		// Past the loop's last cycle, every remaining op applies before
		// the inputs pushed at the checkpoint cycle.
		last := c.cycle >= snapCycle
		for oi < len(ops) && (last || ops[oi].Cycle <= c.cycle) {
			ops[oi].Apply()
			oi++
		}
		for ; i < n; i++ {
			cyc, in := record(recs, i)
			if cyc != c.cycle {
				break
			}
			c.recordInput(in).Push(Word(in >> 32))
		}
		if last {
			break
		}
		c.Step()
	}
	if got := c.digest(); got != wantDigest {
		return fmt.Errorf("raw: snapshot digest mismatch after replay: %#x != %#x", got, wantDigest)
	}
	rec.write(recs)
	rec.active = true
	return nil
}

// record decodes record i of a RAWCKPT1 log: its cycle, and its last
// eight bytes (u16 tile, u8 dir, u8 net, u32 word) as one little-endian
// word.
func record(recs []byte, i int) (cycle int64, in uint64) {
	b := recs[i*recLen : (i+1)*recLen]
	le := binary.LittleEndian
	return int64(le.Uint64(b)), le.Uint64(b[8:])
}

// recordInput returns the boundary input a record's tile, dir and net
// bytes name, or nil if they name none.
func (c *Chip) recordInput(in uint64) *StaticIn {
	return c.staticIn[[3]int{int(uint16(in)), int(uint8(in >> 16)), int(uint8(in >> 24))}]
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
		mix(uint64(q.consumed()))
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
