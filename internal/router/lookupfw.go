package router

import (
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/raw"
)

// ipAddr converts a machine word to an IP address.
func ipAddr(w raw.Word) ip.Addr { return ip.Addr(w) }

// lookupNoRoute is the reply for an unroutable destination.
const lookupNoRoute raw.Word = 0xffffffff

// lookupMcastBit flags a multicast reply; the low nibble carries the
// egress member mask.
const lookupMcastBit raw.Word = 1 << 31

// DRAM layout of the compressed forwarding table (§8.2: Degermark-style
// small forwarding tables): a 2^16-entry first level, then 2^16-entry
// chunks for long prefixes. Tables are double-buffered (§2.2.1: the
// network processor updates the forwarding engines' table copies while
// they forward): an odd epoch sits 2^31 words above an even one, so
// each epoch's region holds at least 32,512 chunks and the live table is
// never overwritten. The offset is a multiple of the data cache's set
// span, so both epochs map onto the same cache sets. From the second
// update on, the region being written still holds the table before
// last, and the lookup caches may hold its lines; installTable drops
// them.
const (
	lkL1Base    raw.Word = 0x0010_0000
	lkChunkBase raw.Word = 0x0100_0000
	lkChunkSize raw.Word = 1 << 16
)

// lookupFW is the Lookup Processor firmware (§4.2): it serves its ingress
// one destination lookup at a time against the forwarding table in
// off-chip DRAM through the data cache (1 probe for prefixes up to /16,
// 2 probes beyond). Hot prefixes stay cache-resident, which is what keeps
// the lookup off the router's critical path in steady state.
type lookupFW struct {
	rt   *Router
	port int

	dst raw.Word
	v1  raw.Word
}

func (f *lookupFW) Refill(e *raw.Exec) {
	e.Recv(&f.dst)
	e.Then(func(e *raw.Exec) {
		// Class D (224.0.0.0/4): the §8.6 multicast group table, modeled
		// as a small associative memory beside the lookup processor.
		if f.dst>>28 == 0xE && f.rt.cfg.Multicast {
			mask, ok := f.rt.cfg.Groups[ipAddr(f.dst)]
			e.Compute(3) // the CAM probe
			e.SendFunc(func() raw.Word {
				f.rt.stats.Lookups[f.port]++
				if !ok || mask == 0 {
					return lookupNoRoute
				}
				return lookupMcastBit | raw.Word(mask&0xf)
			})
			return
		}
		f.probe(e)
	})
}

func (f *lookupFW) probe(e *raw.Exec) {
	l1, chunks := tableBases(f.rt.tableEpoch)
	// Level-1 probe.
	e.CacheRead(l1+f.dst>>16, &f.v1)
	e.Then(func(e *raw.Exec) {
		f.rt.stats.Lookups[f.port]++
		v := int32(f.v1)
		if v >= -1 {
			e.Send(replyWord(v))
			return
		}
		// Long prefix: second probe into the chunk.
		chunk := raw.Word(-2 - v)
		e.CacheRead(chunks+chunk*lkChunkSize+f.dst&0xffff, &f.v1)
		e.Then(func(e *raw.Exec) { e.Send(replyWord(int32(f.v1))) })
	})
}

// tableBases returns the DRAM bases of the given table epoch.
func tableBases(epoch int) (l1, chunks raw.Word) {
	off := raw.Word(epoch&1) << 31
	return lkL1Base + off, lkChunkBase + off
}

func replyWord(v int32) raw.Word {
	if v < 0 {
		return lookupNoRoute
	}
	return raw.Word(v)
}

// TableImageAt serializes a compact forwarding table into (address,
// words) segments for the DRAM controller at the given epoch's bases.
func TableImageAt(t *lookup.Patricia, epoch int) []TableSegment {
	l1, chunks := lookup.Image[raw.Word](lookup.NewCompactTable(t))
	l1Base, chunkBase := tableBases(epoch)
	segs := []TableSegment{{Addr: l1Base, Words: l1}}
	for i, ch := range chunks {
		segs = append(segs, TableSegment{Addr: chunkBase + raw.Word(i)*lkChunkSize, Words: ch})
	}
	return segs
}

// TableSegment is one contiguous DRAM region of the forwarding table.
type TableSegment struct {
	Addr  raw.Word
	Words []raw.Word
}

// installTable pokes a table image into DRAM and drops the lines it
// overwrote from every lookup tile's data cache. New, UpdateTable and
// the checkpoint replay all install here, so a restore replays both.
func (r *Router) installTable(segs []TableSegment) {
	for _, seg := range segs {
		r.Mem.PokeWords(seg.Addr, seg.Words)
	}
	for _, pt := range Layout {
		t := r.Chip.Tile(pt.Lookup)
		for _, seg := range segs {
			t.InvalidateCacheRange(seg.Addr, len(seg.Words))
		}
	}
}
