package lookup_test

import (
	"testing"
	"testing/quick"

	"repro/internal/lookup"
	"repro/internal/traffic"
)

func mustInsert(t *testing.T, p *lookup.Patricia, prefix uint32, plen int, nh lookup.NextHop) {
	t.Helper()
	if err := p.Insert(prefix, plen, nh); err != nil {
		t.Fatal(err)
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	var p lookup.Patricia
	mustInsert(t, &p, 0x0A000000, 8, 1)  // 10/8 -> 1
	mustInsert(t, &p, 0x0A010000, 16, 2) // 10.1/16 -> 2
	mustInsert(t, &p, 0x0A010200, 24, 3) // 10.1.2/24 -> 3
	mustInsert(t, &p, 0, 0, 0)           // default -> 0

	cases := []struct {
		addr uint32
		want lookup.NextHop
	}{
		{0x0A010203, 3}, // 10.1.2.3
		{0x0A010303, 2}, // 10.1.3.3
		{0x0A020303, 1}, // 10.2.3.3
		{0x0B000001, 0}, // 11.0.0.1 -> default
	}
	for _, c := range cases {
		got, probes := p.Lookup(c.addr)
		if got != c.want {
			t.Errorf("lookup %#x = %d, want %d", c.addr, got, c.want)
		}
		if probes <= 0 || probes > 33 {
			t.Errorf("lookup %#x probes = %d out of range", c.addr, probes)
		}
	}
}

func TestNoRouteWithoutDefault(t *testing.T) {
	var p lookup.Patricia
	mustInsert(t, &p, 0xC0A80000, 16, 4)
	if nh, _ := p.Lookup(0x01020304); nh != lookup.NoRoute {
		t.Fatalf("got %d, want NoRoute", nh)
	}
}

func TestInsertReplaceAndDelete(t *testing.T) {
	var p lookup.Patricia
	mustInsert(t, &p, 0x0A000000, 8, 1)
	mustInsert(t, &p, 0x0A000000, 8, 9) // replace
	if p.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", p.Len())
	}
	if nh, _ := p.Lookup(0x0A000001); nh != 9 {
		t.Fatalf("replaced route = %d, want 9", nh)
	}
	if !p.Delete(0x0A000000, 8) {
		t.Fatal("delete reported missing")
	}
	if p.Delete(0x0A000000, 8) {
		t.Fatal("double delete reported present")
	}
	if nh, _ := p.Lookup(0x0A000001); nh != lookup.NoRoute {
		t.Fatalf("deleted route still resolves to %d", nh)
	}
}

func TestInsertValidation(t *testing.T) {
	var p lookup.Patricia
	if err := p.Insert(0, 33, 1); err == nil {
		t.Error("plen 33 accepted")
	}
	if err := p.Insert(0, 8, -2); err == nil {
		t.Error("negative next hop accepted")
	}
}

func TestHostRoutes(t *testing.T) {
	var p lookup.Patricia
	mustInsert(t, &p, 0xDEADBEEF, 32, 7)
	mustInsert(t, &p, 0xDEADBEE0, 28, 6)
	if nh, _ := p.Lookup(0xDEADBEEF); nh != 7 {
		t.Fatalf("host route = %d, want 7", nh)
	}
	if nh, _ := p.Lookup(0xDEADBEEE); nh != 6 {
		t.Fatalf("covering /28 = %d, want 6", nh)
	}
}

// TestCompactMatchesPatricia builds both structures from the same random
// table and property-checks agreement on random addresses.
func TestCompactMatchesPatricia(t *testing.T) {
	var p lookup.Patricia
	seed := uint64(12345)
	next := func() uint32 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return uint32(seed)
	}
	mustInsert(t, &p, 0, 0, 0)
	for i := 0; i < 500; i++ {
		plen := 8 + int(next()%17) // 8..24
		mustInsert(t, &p, next(), plen, lookup.NextHop(next()%4))
	}
	for i := 0; i < 40; i++ { // some long prefixes
		plen := 25 + int(next()%8)
		mustInsert(t, &p, next(), plen, lookup.NextHop(next()%4))
	}
	c := lookup.NewCompactTable(&p)
	if c.Len() != p.Len() {
		t.Fatalf("compact Len %d != patricia Len %d", c.Len(), p.Len())
	}
	f := func(addr uint32) bool {
		want, _ := p.Lookup(addr)
		got, probes := c.Lookup(addr)
		return got == want && probes >= 1 && probes <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactProbeCounts(t *testing.T) {
	var p lookup.Patricia
	mustInsert(t, &p, 0, 0, 0)
	mustInsert(t, &p, 0x0A000000, 8, 1)
	mustInsert(t, &p, 0x0A010280, 25, 2)
	c := lookup.NewCompactTable(&p)
	if _, probes := c.Lookup(0x0B000000); probes != 1 {
		t.Fatalf("short prefix took %d probes, want 1", probes)
	}
	if nh, probes := c.Lookup(0x0A010281); nh != 2 || probes != 2 {
		t.Fatalf("long prefix = (%d, %d probes), want (2, 2)", nh, probes)
	}
}

func TestMaxDepthAndWalk(t *testing.T) {
	var p lookup.Patricia
	mustInsert(t, &p, 0x80000000, 1, 1)
	mustInsert(t, &p, 0xFF000000, 8, 2)
	if d := p.MaxDepth(); d < 8 || d > 9 {
		t.Fatalf("MaxDepth = %d, want ~8", d)
	}
	var seen int
	p.Walk(func(_ uint32, _ int, _ lookup.NextHop) { seen++ })
	if seen != 2 {
		t.Fatalf("Walk visited %d routes, want 2", seen)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	if l := lookup.CommonPrefixLen(0xFF000000, 0xFF000001); l != 31 {
		t.Fatalf("got %d, want 31", l)
	}
	if l := lookup.CommonPrefixLen(0x00000000, 0x80000000); l != 0 {
		t.Fatalf("got %d, want 0", l)
	}
}

// benchTable is the §8.2 lookup workload: a 5,000-route table of random
// /8-/24 prefixes under a default route, as a Patricia trie and as its
// compact form, plus 4,096 random addresses to look up.
func benchTable() (*lookup.Patricia, *lookup.CompactTable, []uint32) {
	var t lookup.Patricia
	rng := traffic.NewRNG(99)
	_ = t.Insert(0, 0, 0)
	for i := 0; i < 5000; i++ {
		_ = t.Insert(uint32(rng.Uint64()), 8+rng.Intn(17), lookup.NextHop(rng.Intn(4)))
	}
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
	}
	return &t, lookup.NewCompactTable(&t), addrs
}

// hop keeps the benchmarks' lookups live: the compiler may drop a call
// whose result is never stored.
var hop lookup.NextHop

// BenchmarkLookupPatricia and BenchmarkLookupCompact time one route
// lookup in each structure.
func BenchmarkLookupPatricia(b *testing.B) {
	t, _, addrs := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop, _ = t.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkLookupCompact(b *testing.B) {
	_, c, addrs := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop, _ = c.Lookup(addrs[i%len(addrs)])
	}
}
