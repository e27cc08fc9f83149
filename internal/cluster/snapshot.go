package cluster

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Deterministic whole-fabric checkpoints. One FABCKPT1 blob captures all
// N chips as a single artifact: each chip's RTRCKPT1 record-replay blob
// plus the fabric-level state that lives outside any chip — the trunk
// framers and their conservation counters, the chip lifecycle (dead
// flags, epochs, birth cycles), the scheduled-control cursor, the
// external drop counts, the fabric event log, and the healing plane
// (ledger counters, retransmit custody, flow-sequence and egress-window
// maps). Healed route tables need no fabric-level record: each chip's
// RTRCKPT1 blob carries its table-update log and the replay re-pokes
// them, so restore re-derives the routing epoch's tables bit-for-bit and
// only recomputes the side state (reachability, partition verdict).
// Restoring onto a freshly built fabric with the same Config and the
// same ApplySchedule calls replays every chip and adopts the fabric
// state; the combined run is bit-for-bit identical to an uninterrupted
// one — mid-heal checkpoints included — provided all kills and
// re-admissions were scheduled through the fault grammar, not manual.

const fabSnapMagic = "FABCKPT1"

// Snapshot returns the whole fabric's checkpoint at the current cycle.
// Requires Config.Router.Checkpoint (every chip records its inputs).
// Call between Run calls only.
func (f *Fabric) Snapshot() ([]byte, error) {
	if !f.cfg.Router.Checkpoint {
		return nil, fmt.Errorf("cluster: fabric snapshot requires Config.Router.Checkpoint")
	}
	le := binary.LittleEndian
	head := []byte(fabSnapMagic)
	head = le.AppendUint64(head, uint64(f.spec.Kind))
	head = le.AppendUint64(head, uint64(f.spec.Chips))
	head = le.AppendUint64(head, uint64(f.spec.W))
	head = le.AppendUint64(head, uint64(f.spec.H))
	head = le.AppendUint64(head, uint64(f.cycle))
	head = le.AppendUint64(head, uint64(len(f.controls)))
	head = le.AppendUint64(head, uint64(f.nextCtl))
	// Each chip's RTRCKPT1 blob follows its slot fields; the chips are
	// written straight into the fabric's blob, between head and tail.
	const slotLen = 6 * 8
	tail := f.appendTail(nil)
	n := len(head) + len(tail)
	for k := range f.chips {
		n += slotLen + f.chips[k].r.SnapshotLen()
	}
	return wire.Encode(n, func(w io.Writer) error {
		if _, err := w.Write(head); err != nil {
			return err
		}
		slot := make([]byte, 0, slotLen)
		for k := range f.chips {
			s := &f.chips[k]
			flags := uint64(0)
			if s.dead {
				flags = 1
			}
			slot = le.AppendUint64(slot[:0], flags)
			slot = le.AppendUint64(slot, uint64(s.epoch))
			slot = le.AppendUint64(slot, uint64(s.bornAt))
			slot = le.AppendUint64(slot, uint64(s.wordsIn))
			slot = le.AppendUint64(slot, uint64(s.wordsOut))
			slot = le.AppendUint64(slot, uint64(s.r.SnapshotLen()))
			if _, err := w.Write(slot); err != nil {
				return err
			}
			if err := s.r.WriteSnapshot(w); err != nil {
				return fmt.Errorf("cluster: chip %d: %w", k, err)
			}
		}
		_, err := w.Write(tail)
		return err
	})
}

// appendTail appends the fabric state that follows the chips' blobs.
func (f *Fabric) appendTail(b []byte) []byte {
	le := binary.LittleEndian
	for ti := range f.trunks {
		t := &f.trunks[ti]
		dead := uint64(0)
		if t.dead {
			dead = 1
		}
		b = le.AppendUint64(b, dead)
		for d := 0; d < 2; d++ {
			td := &t.dir[d]
			b = le.AppendUint64(b, uint64(td.drained))
			b = le.AppendUint64(b, uint64(td.delivered))
			b = le.AppendUint64(b, uint64(td.dropped))
			b = le.AppendUint64(b, uint64(td.retrans))
			b = le.AppendUint64(b, uint64(td.frames))
			b = le.AppendUint64(b, uint64(td.acked))
			b = le.AppendUint64(b, uint64(len(td.buf)))
			for _, w := range td.buf {
				b = le.AppendUint32(b, w)
			}
		}
	}
	for _, v := range f.extDropped {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint64(b, uint64(len(f.events.Events)))
	for _, e := range f.events.Events {
		b = le.AppendUint64(b, uint64(e.Cycle))
		b = le.AppendUint64(b, uint64(e.Port))
		b = le.AppendUint64(b, uint64(e.Kind))
		b = le.AppendUint64(b, uint64(len(e.Detail)))
		b = append(b, e.Detail...)
	}
	// Healing plane: the end-to-end ledger (maintained with healing on or
	// off), retransmit custody, and the flow-tagging maps (sorted by key
	// so the blob is deterministic).
	b = le.AppendUint64(b, uint64(f.injected))
	b = le.AppendUint64(b, uint64(f.retiredExtOut))
	b = le.AppendUint64(b, uint64(f.dupWords))
	for c := 0; c < numDropCauses; c++ {
		b = le.AppendUint64(b, uint64(f.droppedCause[c]))
	}
	b = le.AppendUint64(b, uint64(f.healEpoch))
	b = le.AppendUint64(b, uint64(f.reroutes))
	b = le.AppendUint64(b, uint64(f.retransFrames))
	b = le.AppendUint64(b, uint64(f.retransWords))
	b = le.AppendUint64(b, uint64(f.arqSeq))
	b = le.AppendUint64(b, uint64(len(f.arq)))
	for _, e := range f.arq {
		b = le.AppendUint64(b, uint64(e.trunk))
		b = le.AppendUint64(b, uint64(e.dir))
		b = le.AppendUint64(b, uint64(e.src))
		b = le.AppendUint64(b, uint64(e.port))
		b = le.AppendUint64(b, uint64(e.dstExt))
		b = le.AppendUint64(b, uint64(e.seq))
		b = le.AppendUint64(b, uint64(e.attempts))
		b = le.AppendUint64(b, uint64(e.nextTry))
		b = le.AppendUint64(b, uint64(len(e.words)))
		for _, w := range e.words {
			b = le.AppendUint32(b, w)
		}
	}
	b = le.AppendUint64(b, uint64(len(f.flowSeq)))
	for _, k := range sortedFlowKeys(f.flowSeq) {
		b = le.AppendUint64(b, uint64(k))
		b = le.AppendUint64(b, uint64(f.flowSeq[k]))
	}
	b = le.AppendUint64(b, uint64(len(f.egressFlows)))
	for _, k := range sortedFlowKeys(f.egressFlows) {
		fl := f.egressFlows[k]
		flags := uint64(fl.max) << 1
		if fl.init {
			flags |= 1
		}
		b = le.AppendUint64(b, uint64(k))
		b = le.AppendUint64(b, flags)
		for _, w := range fl.bits {
			b = le.AppendUint64(b, w)
		}
	}
	return b
}

// RestoreSnapshot rebuilds the checkpointed fabric on a freshly
// constructed one. The receiver must have been built with the same
// Config (Checkpoint included, same per-chip fault schedules) and the
// same ApplySchedule calls as the run that produced the blob; chips are
// replayed individually (replacement chips are rebuilt at their
// checkpointed epoch first) and each replay fails with a divergence
// error if it does not converge to the checkpointed counters.
func (f *Fabric) RestoreSnapshot(blob []byte) error {
	if !f.cfg.Router.Checkpoint {
		return fmt.Errorf("cluster: fabric restore requires Config.Router.Checkpoint")
	}
	rd := wire.NewReader(blob)
	if !rd.Magic(fabSnapMagic) {
		return fmt.Errorf("cluster: not a fabric snapshot")
	}
	spec := Spec{
		Kind:  TopoKind(rd.U64()),
		Chips: int(rd.U64()),
		W:     int(rd.U64()),
		H:     int(rd.U64()),
	}
	cycle := int64(rd.U64())
	nctls, nextCtl := rd.U64(), rd.U64()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("cluster: corrupt fabric snapshot header: %w", err)
	}
	if spec != f.spec {
		return fmt.Errorf("cluster: snapshot is for %s, this fabric is %s", spec, f.spec)
	}
	if nctls != uint64(len(f.controls)) {
		return fmt.Errorf("cluster: snapshot scheduled %d chip controls, this fabric %d — apply the same schedule before restoring",
			nctls, len(f.controls))
	}
	if nextCtl > nctls {
		return fmt.Errorf("cluster: corrupt fabric snapshot (control cursor %d past %d controls)", nextCtl, nctls)
	}
	f.cycle = cycle
	f.nextCtl = int(nextCtl)
	// Chips replay only after the whole blob parses, so a corrupt blob
	// fails fast and leaves every chip untouched.
	chips := make([]chipSlot, len(f.chips))
	chipBlobs := make([][]byte, len(f.chips))
	for k := range chips {
		c := &chips[k]
		c.dead = rd.U64() != 0
		c.epoch = int(rd.U64())
		c.bornAt = int64(rd.U64())
		c.wordsIn = int64(rd.U64())
		c.wordsOut = int64(rd.U64())
		chipBlobs[k] = rd.Blob()
	}
	for ti := range f.trunks {
		t := &f.trunks[ti]
		t.dead = rd.U64() != 0
		for d := range t.dir {
			td := &t.dir[d]
			td.drained = int64(rd.U64())
			td.delivered = int64(rd.U64())
			td.dropped = int64(rd.U64())
			td.retrans = int64(rd.U64())
			td.frames = int64(rd.U64())
			td.acked = int64(rd.U64())
			td.buf = td.buf[:0]
			for n := rd.Count(4); n > 0; n-- {
				td.buf = append(td.buf, rd.U32())
			}
		}
	}
	for e := range f.extDropped {
		f.extDropped[e] = int64(rd.U64())
	}
	f.events.Events = f.events.Events[:0]
	for n := rd.Count(32); n > 0; n-- {
		cyc := int64(rd.U64())
		port := int(rd.U64())
		kind := trace.EventKind(rd.U64())
		f.events.AddDetail(cyc, port, kind, string(rd.Blob()))
	}
	f.injected = int64(rd.U64())
	f.retiredExtOut = int64(rd.U64())
	f.dupWords = int64(rd.U64())
	for c := range f.droppedCause {
		f.droppedCause[c] = int64(rd.U64())
	}
	f.healEpoch = int64(rd.U64())
	f.reroutes = int64(rd.U64())
	f.retransFrames = int64(rd.U64())
	f.retransWords = int64(rd.U64())
	f.arqSeq = int64(rd.U64())
	f.arq = f.arq[:0]
	f.arqPend = make(map[[2]int]int)
	for n := rd.Count(72); n > 0; n-- {
		// Each frame names a trunk direction, its source chip and input
		// port, and a destination external, all indexed by the next Run;
		// attempts sizes a backoff shift.
		trunk, dir, src, port, dstExt := rd.U64(), rd.U64(), rd.U64(), rd.U64(), rd.U64()
		seq, attempts, nextTry := int64(rd.U64()), int(rd.U64()), int64(rd.U64())
		if trunk >= uint64(len(f.trunks)) || dir >= 2 || src >= uint64(len(f.chips)) ||
			port >= 4 || dstExt >= uint64(f.spec.Externals()) || attempts < 0 {
			return fmt.Errorf("cluster: corrupt fabric snapshot (ARQ frame: trunk %d dir %d chip %d port %d external %d attempts %d)",
				trunk, dir, src, port, dstExt, attempts)
		}
		e := arqFrame{
			trunk: int(trunk), dir: int(dir), src: int(src), port: int(port), dstExt: int(dstExt),
			seq: seq, attempts: attempts, nextTry: nextTry,
		}
		e.words = make([]uint32, rd.Count(4))
		for i := range e.words {
			e.words[i] = rd.U32()
		}
		f.arq = append(f.arq, e)
		f.arqPend[[2]int{e.trunk, e.dir}]++
	}
	f.flowSeq = make(map[uint32]uint32)
	for n := rd.Count(16); n > 0; n-- {
		k := uint32(rd.U64())
		f.flowSeq[k] = uint32(rd.U64())
	}
	f.egressFlows = make(map[uint32]*egressFlow)
	for n := rd.Count(16 + 8*len(egressFlow{}.bits)); n > 0; n-- {
		k := uint32(rd.U64())
		flags := rd.U64()
		fl := &egressFlow{init: flags&1 != 0, max: uint16(flags >> 1)}
		for i := range fl.bits {
			fl.bits[i] = rd.U64()
		}
		f.egressFlows[k] = fl
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("cluster: corrupt fabric snapshot: %w", err)
	}
	for k, c := range chips {
		if c.epoch != f.chips[k].epoch {
			if err := f.buildChip(k, c.epoch); err != nil {
				return err
			}
		}
		if err := f.chips[k].r.RestoreSnapshot(chipBlobs[k]); err != nil {
			return fmt.Errorf("cluster: chip %d: %w", k, err)
		}
		s := &f.chips[k]
		s.dead, s.bornAt, s.wordsIn, s.wordsOut = c.dead, c.bornAt, c.wordsIn, c.wordsOut
	}
	// Re-derive the healing side state from the restored dead sets. The
	// healed tables themselves were re-installed by each chip's replayed
	// table-update log, so no pokes happen here — only the reachability
	// matrix, the cached next-hop assignment, and the partition verdict.
	if f.healOn() {
		f.applyHealState(false)
	} else {
		for k := range f.chips {
			f.routePorts[k] = f.staticPorts(k)
		}
		f.reach = nil
		f.partition = nil
	}
	return nil
}
