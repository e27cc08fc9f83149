package rotor

import (
	"math/bits"
	"sort"
)

// SpaceSize returns |Hdr|^n × |Token| — the unminimized configuration
// space of §6.1. For the 4-port router this is 5⁴ × 4 = 2,500.
func SpaceSize(n int) int {
	size := n // token positions
	for i := 0; i < n; i++ {
		size *= n + 1 // each header: empty or one of n egresses
	}
	return size
}

// EnumerateSpace calls f for every global configuration of an n-tile ring
// and returns the number visited.
func EnumerateSpace(n int, f func(GlobalConfig, Allocation)) int {
	count := 0
	eachConfig(n, unicast, func(reqs []McastReq, token int) {
		count++
		if f != nil {
			g := GlobalConfig{Hdrs: make([]Hdr, n), Token: token}
			for i, m := range reqs {
				if m != 0 {
					g.Hdrs[i] = HdrTo(bits.TrailingZeros32(uint32(m)))
				}
			}
			f(g, Allocate(g))
		}
	})
	return count
}

// eachConfig calls f for every point of an n-tile ring's request space:
// every vector whose tile-i mask m passes keep(i, m), lowest masks
// first, with every token. f sees one reused vector.
func eachConfig(n int, keep func(i int, m McastReq) bool, f func(reqs []McastReq, token int)) {
	reqs := make([]McastReq, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			for token := 0; token < n; token++ {
				f(reqs, token)
			}
			return
		}
		for m := McastReq(0); m < 1<<n; m++ {
			if keep(pos, m) {
				reqs[pos] = m
				rec(pos + 1)
			}
		}
	}
	rec(0)
}

// unicast keeps the §6.1 space's requests: empty or one egress.
func unicast(_ int, m McastReq) bool { return m.Count() <= 1 }

// collect adds to seen every per-tile configuration alloc produces over
// the request space keep admits.
func collect(seen map[ConfigKey]bool, n int, keep func(int, McastReq) bool, alloc func([]McastReq, int) Allocation) {
	eachConfig(n, keep, func(reqs []McastReq, token int) {
		for _, t := range alloc(reqs, token).Tiles {
			seen[t.Key()] = true
		}
	})
}

// sortedKeys returns the configurations of seen in a deterministic order.
func sortedKeys(seen map[ConfigKey]bool) []ConfigKey {
	keys := make([]ConfigKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// ConfigKey is the identity under which per-tile configurations are
// deduplicated: the Table 6.1 client assignment plus the expansion
// numbers. (The §6.2 in-blocked boolean parameterizes the tile processor,
// not the switch routine, so it is not part of the switch-code identity.)
type ConfigKey struct {
	Out, CWNext, CCWNext     Client
	OutHops, CWHops, CCWHops uint8
}

// Key returns the dedup identity of a tile configuration.
func (t TileConfig) Key() ConfigKey {
	return ConfigKey{
		Out: t.Out, CWNext: t.CWNext, CCWNext: t.CCWNext,
		OutHops: t.OutHops, CWHops: t.CWHops, CCWHops: t.CCWHops,
	}
}

// MinimizedConfigs enumerates the whole global space of an n-tile ring and
// returns the distinct per-tile configurations the allocator can ever
// produce, in a deterministic order. For n = 4 this is the
// "self-sufficient subset of 32 entries" of §6.2.
func MinimizedConfigs(n int) []ConfigKey {
	seen := make(map[ConfigKey]bool)
	collect(seen, n, unicast, AllocateMixed)
	return sortedKeys(seen)
}

func keyLess(a, b ConfigKey) bool {
	av := [6]uint8{uint8(a.Out), a.OutHops, uint8(a.CWNext), a.CWHops, uint8(a.CCWNext), a.CCWHops}
	bv := [6]uint8{uint8(b.Out), b.OutHops, uint8(b.CWNext), b.CWHops, uint8(b.CCWNext), b.CCWHops}
	for i := range av {
		if av[i] != bv[i] {
			return av[i] < bv[i]
		}
	}
	return false
}

// DegradedConfigs enumerates every global configuration reachable with
// one dead tile — all dead-tile choices, all live-header combinations,
// all token positions — and returns the distinct per-tile configurations
// the degraded allocator can produce, deterministically ordered. These
// are the switch routines a surviving tile may need after fault
// recovery.
func DegradedConfigs(n int) []ConfigKey { return faultConfigs(n, true) }

// ReadmitConfigs enumerates every per-tile configuration the probation
// walk (AllocateFT with a joining tile) can produce, over all choices of
// joining tile, all header combinations (the joining tile's own header
// is empty; other tiles may target the quarantined egress and get
// blocked), and all token positions — the re-admitted tile takes the
// token first, so token == joining is reachable. These are the
// transition slots of the fault-tolerant jump table: appended after the
// degraded configurations so healthy entries stay bitwise unchanged.
func ReadmitConfigs(n int) []ConfigKey { return faultConfigs(n, false) }

// faultConfigs collects the unicast configurations of every ring with
// one silent tile, dead (severed) or joining (quarantined). A request
// naming the pre-claimed egress is blocked and paints nothing, so the
// space need not leave it out.
func faultConfigs(n int, severed bool) []ConfigKey {
	seen := make(map[ConfigKey]bool)
	for x := 0; x < n; x++ {
		dead, joining := -1, x
		if severed {
			dead, joining = x, -1
		}
		keep := func(i int, m McastReq) bool { return unicast(i, m) && (i != x || m == 0) }
		collect(seen, n, keep, func(reqs []McastReq, token int) Allocation {
			return AllocateFT(reqs, token, nil, dead, joining)
		})
	}
	return sortedKeys(seen)
}

// MixedConfigs enumerates every per-tile configuration the mixed
// allocator can produce over the full request space (16 masks per tile ×
// n tokens) — the multicast analogue of MinimizedConfigs. For n = 4 the
// space has 16⁴×4 = 262,144 global configurations.
func MixedConfigs(n int) []ConfigKey {
	seen := make(map[ConfigKey]bool)
	collect(seen, n, func(int, McastReq) bool { return true }, AllocateMixed)
	return sortedKeys(seen)
}

// ConfigIndex maps every reachable per-tile configuration to its slot in
// the switch-code jump table.
type ConfigIndex struct {
	keys  []ConfigKey
	index map[ConfigKey]int
}

// NewConfigIndex builds the jump-table index for an n-tile ring.
func NewConfigIndex(n int) *ConfigIndex { return indexOf(MinimizedConfigs(n)) }

// NewMixedConfigIndex builds the jump-table index over the mixed space.
func NewMixedConfigIndex(n int) *ConfigIndex { return indexOf(MixedConfigs(n)) }

// indexOf numbers keys in order.
func indexOf(keys []ConfigKey) *ConfigIndex {
	ci := &ConfigIndex{keys: keys, index: make(map[ConfigKey]int, len(keys))}
	for i, k := range keys {
		ci.index[k] = i
	}
	return ci
}

// NewConfigIndexFT builds the fault-tolerant jump-table index: the
// healthy minimized configurations in their usual slots, followed by any
// configurations only the degraded allocator can produce, followed by
// the re-admission transition slots probation quanta can produce.
// Healthy slot numbers are unchanged, so programs generated against
// NewConfigIndex and NewConfigIndexFT dispatch healthy traffic
// identically.
func NewConfigIndexFT(n int) *ConfigIndex {
	ci := NewConfigIndex(n)
	for _, k := range append(DegradedConfigs(n), ReadmitConfigs(n)...) {
		if _, ok := ci.index[k]; !ok {
			ci.index[k] = len(ci.keys)
			ci.keys = append(ci.keys, k)
		}
	}
	return ci
}

// Len returns the number of distinct configurations.
func (ci *ConfigIndex) Len() int { return len(ci.keys) }

// Of returns the jump-table slot of a tile configuration.
func (ci *ConfigIndex) Of(t TileConfig) int {
	i, ok := ci.index[t.Key()]
	if !ok {
		panic("rotor: configuration outside the minimized space")
	}
	return i
}

// Key returns the configuration at slot i.
func (ci *ConfigIndex) Key(i int) ConfigKey { return ci.keys[i] }

// UnminimizedIMemNeed returns the §6.1 arithmetic: with SPACE
// configurations sharing an 8,192-word instruction memory, how many
// instruction words are available per configuration ("approximately 3.3
// instructions ... obviously not enough").
func UnminimizedIMemNeed(n, imemWords int) float64 {
	return float64(imemWords) / float64(SpaceSize(n))
}
