package router

import "testing"

// TestTableEpochsDisjoint: the two table epochs' level-1 tables and chunk
// regions share no DRAM word and none wraps past 2^32, for tables of up
// to 32,512 chunks (regions only grow with the chunk count, so the
// largest table covers every smaller one). An update then never writes
// the live epoch, whatever the table's size.
func TestTableEpochsDisjoint(t *testing.T) {
	const maxChunks = 32_512
	type region struct{ lo, hi uint64 }
	var regions []region
	for epoch := 0; epoch < 2; epoch++ {
		l1, chunks := tableBases(epoch)
		regions = append(regions,
			region{uint64(l1), uint64(l1) + 1<<16},
			region{uint64(chunks), uint64(chunks) + maxChunks*uint64(lkChunkSize)})
	}
	for i, a := range regions {
		if a.hi > 1<<32 {
			t.Errorf("region [%#x, %#x) wraps past 2^32", a.lo, a.hi)
		}
		for _, b := range regions[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("regions [%#x, %#x) and [%#x, %#x) overlap", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}
