package router

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/raw"
	"repro/internal/wire"
)

// Deterministic router checkpoints (robustness extension). The chip
// layer checkpoints by record-replay (see internal/raw/snapshot.go): the
// blob holds every boundary input ever pushed, and restoring replays
// them through a fresh chip, which re-derives all firmware state —
// including this router's counters, degraded/restore state machine, and
// scheduled controls — bit for bit. The router wrapper adds the state
// that lives OUTSIDE the replayed simulation: the output-parse cursors
// (DrainOutput consumes sink words at arbitrary harness times that the
// replay does not repeat) and a copy of Stats and the recovery state,
// used purely to verify that the replay converged to the checkpointed
// run rather than diverging.
//
// A restored run is bit-for-bit identical to an uninterrupted one
// provided the original run's inputs were all simulation inputs: words
// offered at the pins, fault schedules, and scheduled recovery controls
// (ScheduleRestore/ScheduleReprobe). Manual Degrade/Restore calls
// between Run calls are not recorded — use the scheduled forms in runs
// that will be checkpointed.

const rtrSnapMagic = "RTRCKPT1"

// Snapshot returns the router's checkpoint at the current cycle.
// Requires Config.Checkpoint (input recording from construction). Call
// between Run calls only.
func (r *Router) Snapshot() ([]byte, error) {
	return wire.Encode(r.SnapshotLen(), r.WriteSnapshot)
}

// SnapshotLen returns the length of the blob Snapshot returns.
func (r *Router) SnapshotLen() int {
	n := len(rtrSnapMagic) + 8 + r.Chip.SnapshotLen()
	for p := 0; p < 4; p++ {
		n += 4*8 + 4*len(r.parseBuf[p]) + 8*len(r.cuts[p])
	}
	n += 8
	for _, u := range r.tableLog {
		n += 2 * 8
		for _, seg := range u.segs {
			n += 2*8 + 4*len(seg.Words)
		}
	}
	return n + 8*numStateWords
}

// WriteSnapshot writes the blob Snapshot returns to w. The chip's blob
// streams through from its input log; the fields before and after it
// are encoded into a buffer the router reuses.
func (r *Router) WriteSnapshot(w io.Writer) error {
	if !r.cfg.Checkpoint {
		return fmt.Errorf("router: snapshot requires Config.Checkpoint")
	}
	le := binary.LittleEndian
	b := append(r.snapBuf[:0], rtrSnapMagic...)
	b = le.AppendUint64(b, uint64(r.Chip.SnapshotLen()))
	head := len(b)
	for p := 0; p < 4; p++ {
		b = le.AppendUint64(b, uint64(r.parsed[p]))
		b = le.AppendUint64(b, uint64(len(r.parseBuf[p])))
		for _, w := range r.parseBuf[p] {
			b = le.AppendUint32(b, w)
		}
		b = le.AppendUint64(b, uint64(len(r.cuts[p])))
		for _, c := range r.cuts[p] {
			b = le.AppendUint64(b, uint64(c))
		}
		b = le.AppendUint64(b, uint64(r.outs[p].Count()-int64(r.outs[p].Held())))
	}
	// Mid-run table updates: DRAM pokes live outside the chip's input
	// log, so the blob carries them and restore re-applies them at the
	// recorded cycles.
	b = le.AppendUint64(b, uint64(len(r.tableLog)))
	for _, u := range r.tableLog {
		b = le.AppendUint64(b, uint64(u.cycle))
		b = le.AppendUint64(b, uint64(len(u.segs)))
		for _, seg := range u.segs {
			b = le.AppendUint64(b, uint64(seg.Addr))
			b = le.AppendUint64(b, uint64(len(seg.Words)))
			for _, w := range seg.Words {
				b = le.AppendUint32(b, uint32(w))
			}
		}
	}
	for _, v := range r.stateWords() {
		b = le.AppendUint64(b, uint64(v))
	}
	r.snapBuf = b
	if _, err := w.Write(b[:head]); err != nil {
		return err
	}
	if err := r.Chip.WriteSnapshot(w); err != nil {
		return err
	}
	_, err := w.Write(b[head:])
	return err
}

// RestoreSnapshot rebuilds the checkpointed state on a freshly
// constructed router. The receiver must have been built with the same
// Config (Checkpoint included), the same fault injector installed, and
// the same recovery controls scheduled as the run that produced the
// blob — the chip replay re-derives all firmware and recovery state from
// those, and the restore fails with a divergence error if the replayed
// counters do not match the checkpoint.
func (r *Router) RestoreSnapshot(blob []byte) error {
	if !r.cfg.Checkpoint {
		return fmt.Errorf("router: restore requires Config.Checkpoint")
	}
	rd := wire.NewReader(blob)
	if !rd.Magic(rtrSnapMagic) {
		return fmt.Errorf("router: not a router snapshot")
	}
	chip := rd.Blob()
	type portState struct {
		parsed   int64
		parseBuf []uint32
		cuts     []int64
		drained  int64
	}
	var ports [4]portState
	for p := range ports {
		ps := &ports[p]
		ps.parsed = int64(rd.U64())
		ps.parseBuf = make([]uint32, rd.Count(4))
		for i := range ps.parseBuf {
			ps.parseBuf[i] = rd.U32()
		}
		ps.cuts = make([]int64, rd.Count(8))
		for i := range ps.cuts {
			ps.cuts[i] = int64(rd.U64())
			if ps.cuts[i] < 0 {
				return fmt.Errorf("router: corrupt snapshot (port %d cut %d)", p, ps.cuts[i])
			}
		}
		ps.drained = int64(rd.U64())
		if ps.parsed < 0 || ps.drained < 0 {
			return fmt.Errorf("router: corrupt snapshot (port %d parsed %d, drained %d)", p, ps.parsed, ps.drained)
		}
	}
	log := make([]tableUpdate, rd.Count(16))
	for i := range log {
		u := &log[i]
		u.cycle = int64(rd.U64())
		u.segs = make([]TableSegment, rd.Count(16))
		for j := range u.segs {
			seg := &u.segs[j]
			seg.Addr = raw.Word(rd.U64())
			seg.Words = make([]raw.Word, rd.Count(4))
			for k := range seg.Words {
				seg.Words[k] = raw.Word(rd.U32())
			}
		}
	}
	want := make([]int64, numStateWords)
	for i := range want {
		want[i] = int64(rd.U64())
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("router: corrupt snapshot: %w", err)
	}

	// Replay the simulation, re-installing each recorded table update
	// at its cycle; firmware and recovery state re-derive.
	ops := make([]raw.ReplayOp, len(log))
	for i := range log {
		u := log[i]
		epoch := i + 1
		ops[i] = raw.ReplayOp{Cycle: u.cycle, Apply: func() {
			r.installTable(u.segs)
			// The lookup firmware reads tableEpoch live to pick the
			// double-buffer bases, so the flip must replay at the same
			// cycle as the pokes or every subsequent lookup probes the
			// stale epoch's addresses.
			r.tableEpoch = epoch
		}}
	}
	if err := r.Chip.RestoreSnapshotOps(chip, ops); err != nil {
		return err
	}
	r.tableLog = log
	r.tableEpoch = len(log)
	got := r.stateWords()
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("router: replay diverged from checkpoint (state word %d: %d != %d); was the run driven by unrecorded manual calls?",
				i, got[i], want[i])
		}
	}

	// Re-apply the harness-side parse cursors: drop the sink words the
	// checkpointed run had already drained, restore the partial tails.
	for p := 0; p < 4; p++ {
		ps := &ports[p]
		if int64(r.outs[p].Held()) < ps.drained {
			return fmt.Errorf("router: replay emitted fewer words on port %d than the checkpoint drained", p)
		}
		r.outs[p].DropFront(int(ps.drained))
		r.parsed[p] = ps.parsed
		r.parseBuf[p] = append(r.parseBuf[p][:0], ps.parseBuf...)
		r.cuts[p] = append(r.cuts[p][:0], ps.cuts...)
	}
	return nil
}

// numStateWords is the length of stateWords' result.
const numStateWords = 4*15 + 5

// stateWords flattens the replay-derived router state the restore
// verifies: every Stats counter plus the recovery state machine.
func (r *Router) stateWords() []int64 {
	w := make([]int64, 0, numStateWords)
	for p := 0; p < 4; p++ {
		w = append(w,
			r.stats.Accepted[p], r.stats.Dropped[p], r.stats.Denied[p],
			r.stats.FragsSent[p], r.stats.PktsIn[p], r.stats.PktsOut[p],
			r.stats.Reassembled[p], r.stats.Lookups[p], r.stats.McastIn[p],
			r.stats.McastCopies[p], r.stats.AbortDropped[p], r.stats.Underruns[p],
			r.stats.Reprobes[p], r.stats.Recovered[p], r.stats.FlapDrops[p])
	}
	w = append(w, r.stats.FabricLost, int64(r.deadPort), int64(r.probationPort),
		int64(r.tableEpoch))
	flags := int64(0)
	if r.failed {
		flags |= 1
	}
	if r.restoring {
		flags |= 2
	}
	return append(w, flags)
}
