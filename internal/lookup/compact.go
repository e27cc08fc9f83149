package lookup

// CompactTable is a two-level compressed forwarding table in the spirit of
// Degermark et al., "Small Forwarding Tables for Fast Routing Lookups"
// (SIGCOMM 1997), which §8.2 of the paper proposes for the Raw lookup
// processors: a direct-indexed 2^16-entry first level, with per-chunk
// second levels only where prefixes are longer than 16 bits. A lookup
// costs one probe for short prefixes and two for long ones — a property
// the cycle simulator exploits.
//
// Build one from a populated Patricia table with NewCompactTable.
type CompactTable struct {
	// level1[i] is either a next hop (>= 0), NoRoute (-1), or a chunk
	// pointer encoded as -(chunkIndex+2).
	level1 []int32
	// chunks holds 2^16-entry second levels indexed by the low 16 address
	// bits (a simplified, flat variant of Degermark's chunked level 2/3).
	chunks [][]NextHop
	routes int
}

const l1Bits = 16

// NewCompactTable flattens a Patricia table. Prefixes longer than 24 bits
// are expanded within their chunk (the classic trade of memory for probe
// count).
func NewCompactTable(t *Patricia) *CompactTable {
	c := &CompactTable{level1: make([]int32, 1<<l1Bits), routes: t.Len()}
	for i := range c.level1 {
		c.level1[i] = int32(NoRoute)
	}
	// Paint routes in increasing prefix-length order so longer prefixes
	// overwrite shorter ones (longest-prefix match by construction).
	type rt struct {
		prefix uint32
		plen   int
		nh     NextHop
	}
	var all []rt
	t.Walk(func(prefix uint32, plen int, nh NextHop) {
		all = append(all, rt{prefix, plen, nh})
	})
	for plen := 0; plen <= 32; plen++ {
		for _, r := range all {
			if r.plen != plen {
				continue
			}
			if plen <= l1Bits {
				base := r.prefix >> (32 - l1Bits)
				count := uint32(1) << (l1Bits - plen)
				if plen == 0 {
					base, count = 0, 1<<l1Bits
				}
				for i := uint32(0); i < count; i++ {
					slot := base + i
					if c.level1[slot] < int32(NoRoute) {
						// Chunk exists: paint the whole chunk.
						ch := c.chunks[-2-c.level1[slot]]
						for j := range ch {
							ch[j] = r.nh
						}
					} else {
						c.level1[slot] = int32(r.nh)
					}
				}
				continue
			}
			// Long prefix: ensure a chunk and paint the covered entries.
			slot := r.prefix >> (32 - l1Bits)
			ch := c.chunk(slot)
			low := r.prefix & 0xffff
			count := uint32(1) << (32 - plen)
			for i := uint32(0); i < count; i++ {
				ch[low+i] = r.nh
			}
		}
	}
	return c
}

// chunk returns (creating if needed) the second-level chunk for level-1
// slot, seeding it with the slot's current short-prefix route.
func (c *CompactTable) chunk(slot uint32) []NextHop {
	if c.level1[slot] < int32(NoRoute) {
		return c.chunks[-2-c.level1[slot]]
	}
	ch := make([]NextHop, 1<<16)
	seed := NextHop(c.level1[slot])
	for i := range ch {
		ch[i] = seed
	}
	idx := int32(len(c.chunks))
	c.chunks = append(c.chunks, ch)
	c.level1[slot] = -2 - idx
	return ch
}

// Lookup returns the next hop and the probe count (1 or 2).
func (c *CompactTable) Lookup(addr uint32) (NextHop, int) {
	v := c.level1[addr>>(32-l1Bits)]
	if v >= int32(NoRoute) {
		return NextHop(v), 1
	}
	return c.chunks[-2-v][addr&0xffff], 2
}

// Len returns the number of routes the table was built from.
func (c *CompactTable) Len() int { return c.routes }

// MemoryWords estimates the table's footprint in 32-bit words — the
// quantity §8.2 worries about fitting near the lookup tiles.
func (c *CompactTable) MemoryWords() int {
	return len(c.level1) + len(c.chunks)*(1<<16)
}

// Image serializes the table for loading into simulated DRAM, as words
// of the caller's 32-bit type: the level-1 array (chunk pointers encoded
// as -(index+2), next hops as non-negative values, NoRoute as -1, all
// two's complement) and each chunk's next-hop array.
func Image[W ~uint32](c *CompactTable) (level1 []W, chunks [][]W) {
	level1 = make([]W, len(c.level1))
	for i, v := range c.level1 {
		level1[i] = W(v)
	}
	chunks = make([][]W, len(c.chunks))
	for i, ch := range c.chunks {
		words := make([]W, len(ch))
		for j, nh := range ch {
			words[j] = W(int32(nh))
		}
		chunks[i] = words
	}
	return level1, chunks
}
