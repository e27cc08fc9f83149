package cluster

import (
	"fmt"

	"repro/internal/lookup"
	"repro/internal/router"
)

// Topology kinds. Each kind fixes how N 4-port chips are wired together
// (which chip-local ports become inter-chip trunks and which stay
// external) and which deterministic inter-chip routing discipline the
// per-chip tables implement:
//
//   - ring: ports 0,1 of every chip are external, port 2 is the
//     clockwise trunk and port 3 the counter-clockwise one;
//     direction-optimal routing takes the shorter way around, spreading
//     ties by destination parity, which balances the bisection; on the
//     2-chip ring of the §8.5 composition study every cross-chip route
//     is such a tie, so the two trunk links split it evenly.
//   - mesh: a W x H grid with ports 0=E, 1=W, 2=N, 3=S; interior sides
//     are trunks, boundary sides are external; dimension-ordered (X then
//     Y) routing, which is deadlock-free on a mesh.
//   - fattree: L leaf chips (ports 0,1 external) under two spine chips;
//     up*/down* routing sends a remote packet up to the spine chosen by
//     destination parity and straight down to its leaf.
type TopoKind uint8

const (
	TopoRing TopoKind = iota
	TopoMesh
	TopoFatTree
)

// String returns the kind's stable name ("ring", "mesh", "fattree").
func (k TopoKind) String() string {
	switch k {
	case TopoRing:
		return "ring"
	case TopoMesh:
		return "mesh"
	case TopoFatTree:
		return "fattree"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseTopoKind maps a stable name back to its kind.
func ParseTopoKind(s string) (TopoKind, error) {
	switch s {
	case "ring":
		return TopoRing, nil
	case "mesh":
		return TopoMesh, nil
	case "fattree":
		return TopoFatTree, nil
	}
	return 0, fmt.Errorf("cluster: unknown topology %q (want ring, mesh, or fattree)", s)
}

// Spec declares an N-chip fabric: the topology is data, compiled by
// NewFabric into per-chip route tables and trunk wiring. Ring and
// fat-tree specs size themselves with Chips (fat-tree: leaves + the two
// spines) and leave W,H zero; mesh specs use W,H and leave Chips zero.
type Spec struct {
	Kind  TopoKind
	Chips int // ring: 2..32 chips; fattree: 4..6 chips (2..4 leaves + 2 spines)
	W, H  int // mesh: 1..8 each, W*H >= 2
}

// Ring returns the spec for an n-chip ring.
func Ring(n int) Spec { return Spec{Kind: TopoRing, Chips: n} }

// Mesh returns the spec for a w x h grid.
func Mesh(w, h int) Spec { return Spec{Kind: TopoMesh, W: w, H: h} }

// FatTree returns the spec for leaves leaf chips under two spines.
func FatTree(leaves int) Spec { return Spec{Kind: TopoFatTree, Chips: leaves + 2} }

// SpecFor maps a (kind, chip count) pair — the command-line surface —
// to a validated Spec. Rings take the count directly; a fat-tree's
// count includes its two spines; a mesh count is factored into the
// squarest W x H grid (16 -> 4x4, 8 -> 4x2), rejecting counts with no
// grid inside the side bounds (primes > 8).
func SpecFor(kind TopoKind, chips int) (Spec, error) {
	var s Spec
	switch kind {
	case TopoRing:
		s = Ring(chips)
	case TopoFatTree:
		s = FatTree(chips - 2)
	case TopoMesh:
		if chips < 2 {
			return Spec{}, fmt.Errorf("cluster: mesh needs at least 2 chips (got %d)", chips)
		}
		w := 0
		for d := 1; d*d <= chips; d++ {
			if chips%d == 0 && chips/d <= maxMeshSide {
				w = d
			}
		}
		if w == 0 {
			return Spec{}, fmt.Errorf("cluster: %d chips has no W x H grid with sides <= %d", chips, maxMeshSide)
		}
		s = Mesh(chips/w, w)
	default:
		return Spec{}, fmt.Errorf("cluster: unknown topology kind %d", kind)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String names the instance ("ring-4", "mesh-4x4", "fattree-6").
func (s Spec) String() string {
	if s.Kind == TopoMesh {
		return fmt.Sprintf("mesh-%dx%d", s.W, s.H)
	}
	return fmt.Sprintf("%s-%d", s.Kind, s.Chips)
}

// Spec validation bounds. The fat-tree leaf count is capped by the spine
// chips' four ports; the ring and mesh caps keep a hostile (fuzzed) spec
// from building an unboundedly large fabric.
const (
	minRingChips    = 2
	maxRingChips    = 32
	maxMeshSide     = 8
	minFatTreeChips = 4 // 2 leaves + 2 spines
	maxFatTreeChips = 6 // 4 leaves + 2 spines
)

// PartitionRisk names the ways a single chip loss can disconnect the
// surviving topology, or returns "" for specs where any one chip can die
// without splitting the fabric. Risky specs (a 2-chip ring, a 1-wide
// mesh) still validate — they are legitimate degenerate fabrics — but a
// kill on one with healing enabled surfaces a typed PartitionError, and
// harnesses can warn up front with this string.
func (s Spec) PartitionRisk() string {
	switch s.Kind {
	case TopoRing:
		if s.Chips == 2 {
			return "partition risk: a 2-chip ring has a single neighbor per chip — losing either chip isolates the survivor"
		}
	case TopoMesh:
		if (s.W == 1 || s.H == 1) && s.NumChips() > 2 {
			return fmt.Sprintf("partition risk: a %dx%d mesh is a line — losing any interior chip splits it in two", s.W, s.H)
		}
		if s.NumChips() == 2 {
			return "partition risk: a 2-chip mesh has a single trunk — losing either chip isolates the survivor"
		}
	}
	return ""
}

// Validate checks the spec against the kind's bounds, with a precise
// error for every way a spec can be malformed. Specs whose chip loss can
// partition the fabric (2-chip ring, 1-wide mesh) are valid — see
// PartitionRisk for the loud-failure contract under healing.
func (s Spec) Validate() error {
	switch s.Kind {
	case TopoRing:
		if s.W != 0 || s.H != 0 {
			return fmt.Errorf("cluster: ring spec must leave W,H zero (got %dx%d)", s.W, s.H)
		}
		if s.Chips < minRingChips || s.Chips > maxRingChips {
			return fmt.Errorf("cluster: ring wants %d..%d chips, got %d", minRingChips, maxRingChips, s.Chips)
		}
	case TopoMesh:
		if s.Chips != 0 {
			return fmt.Errorf("cluster: mesh spec sizes itself with W,H; leave Chips zero (got %d)", s.Chips)
		}
		if s.W < 1 || s.W > maxMeshSide || s.H < 1 || s.H > maxMeshSide {
			return fmt.Errorf("cluster: mesh sides must be 1..%d, got %dx%d", maxMeshSide, s.W, s.H)
		}
		if s.W*s.H < 2 {
			return fmt.Errorf("cluster: a 1x1 mesh has no trunks; need at least 2 chips")
		}
	case TopoFatTree:
		if s.W != 0 || s.H != 0 {
			return fmt.Errorf("cluster: fattree spec must leave W,H zero (got %dx%d)", s.W, s.H)
		}
		if s.Chips < minFatTreeChips || s.Chips > maxFatTreeChips {
			return fmt.Errorf("cluster: fattree wants %d..%d chips (leaves+2 spines), got %d",
				minFatTreeChips, maxFatTreeChips, s.Chips)
		}
	default:
		return fmt.Errorf("cluster: unknown topology kind %d", uint8(s.Kind))
	}
	return nil
}

// NumChips returns the fabric's chip count.
func (s Spec) NumChips() int {
	if s.Kind == TopoMesh {
		return s.W * s.H
	}
	return s.Chips
}

// leaves returns the fat-tree leaf count; spines are chips leaves and
// leaves+1.
func (s Spec) leaves() int { return s.Chips - 2 }

// Externals returns the fabric's external (line-card-facing) port count.
// External port e owns (10+e).0.0.0/8, extending the single-chip
// canonical addressing to the whole fabric.
func (s Spec) Externals() int {
	switch s.Kind {
	case TopoRing:
		return 2 * s.Chips
	case TopoMesh:
		// Perimeter sides: every boundary side of every edge chip.
		return 2*s.W + 2*s.H
	case TopoFatTree:
		return 2 * s.leaves()
	}
	return 0
}

// meshXY returns chip c's grid coordinates.
func (s Spec) meshXY(c int) (x, y int) { return c % s.W, c / s.W }

// Mesh side roles for the four chip-local ports.
const (
	meshE = 0
	meshW = 1
	meshN = 2
	meshS = 3
)

// meshBoundary reports whether chip c's local port is a grid-boundary
// side (external) rather than a trunk to a neighbor.
func (s Spec) meshBoundary(c, local int) bool {
	x, y := s.meshXY(c)
	switch local {
	case meshE:
		return x == s.W-1
	case meshW:
		return x == 0
	case meshN:
		return y == 0
	case meshS:
		return y == s.H-1
	}
	return false
}

// ExtPort maps external port e to its (chip, chip-local port) placement.
func (s Spec) ExtPort(e int) (chip, local int) {
	switch s.Kind {
	case TopoRing, TopoFatTree:
		// Two externals per edge chip: chip c contributes ports 0 and 1.
		return e / 2, e % 2
	case TopoMesh:
		// Enumerate boundary sides in (chip, local) order.
		i := 0
		for c := 0; c < s.NumChips(); c++ {
			for l := 0; l < 4; l++ {
				if !s.meshBoundary(c, l) {
					continue
				}
				if i == e {
					return c, l
				}
				i++
			}
		}
	}
	panic(fmt.Sprintf("cluster: external port %d out of range on %s", e, s))
}

// ExternalOf is ExtPort's inverse: the external port index of a chip's
// local port, or ok=false if that side is a trunk (or a disconnected
// spine port).
func (s Spec) ExternalOf(chip, local int) (e int, ok bool) {
	for i := 0; i < s.Externals(); i++ {
		c, l := s.ExtPort(i)
		if c == chip && l == local {
			return i, true
		}
	}
	return 0, false
}

// Trunk is one bidirectional inter-chip link: chip A's local port APort
// wired pin-to-pin to chip B's local port BPort. The fabric bridges both
// directions every step slice.
type Trunk struct {
	A, APort int
	B, BPort int
}

// String names the trunk ("c0p2-c1p3").
func (t Trunk) String() string {
	return fmt.Sprintf("c%dp%d-c%dp%d", t.A, t.APort, t.B, t.BPort)
}

// Trunks enumerates the spec's inter-chip links in a deterministic
// order (ring: clockwise from chip 0; mesh: chip order, E before S;
// fattree: leaf order, spine 0 before spine 1).
func (s Spec) Trunks() []Trunk {
	var ts []Trunk
	switch s.Kind {
	case TopoRing:
		for c := 0; c < s.Chips; c++ {
			ts = append(ts, Trunk{A: c, APort: ringCW, B: (c + 1) % s.Chips, BPort: ringCCW})
		}
	case TopoMesh:
		for c := 0; c < s.NumChips(); c++ {
			x, y := s.meshXY(c)
			if x+1 < s.W {
				ts = append(ts, Trunk{A: c, APort: meshE, B: c + 1, BPort: meshW})
			}
			if y+1 < s.H {
				ts = append(ts, Trunk{A: c, APort: meshS, B: c + s.W, BPort: meshN})
			}
		}
	case TopoFatTree:
		for l := 0; l < s.leaves(); l++ {
			ts = append(ts, Trunk{A: l, APort: ftUp0, B: s.leaves(), BPort: l})
			ts = append(ts, Trunk{A: l, APort: ftUp1, B: s.leaves() + 1, BPort: l})
		}
	}
	return ts
}

// Ring and fat-tree port roles.
const (
	ringCW  = 2 // trunk toward chip (c+1) mod N
	ringCCW = 3 // trunk toward chip (c-1) mod N
	ftUp0   = 2 // leaf uplink to spine 0
	ftUp1   = 3 // leaf uplink to spine 1
)

// NextHopPort returns the chip-local port chip forwards through toward
// external port e — the inter-chip routing discipline, compiled into
// chip's route table by NewFabric. A packet repeatedly forwarded by
// NextHopPort provably reaches e's chip: ring hops shrink the
// circular distance, dimension-ordered mesh hops fix X then Y, and
// fat-tree routes are one up-hop and one down-hop.
func (s Spec) NextHopPort(chip, e int) int {
	dc, dl := s.ExtPort(e)
	if dc == chip {
		return dl
	}
	switch s.Kind {
	case TopoRing:
		// Direction-optimal: shorter way around; ties spread by
		// destination parity to balance the bisection.
		n := s.Chips
		cw := (dc - chip + n) % n
		switch {
		case cw < n-cw:
			return ringCW
		case cw > n-cw:
			return ringCCW
		case e%2 == 0:
			return ringCW
		default:
			return ringCCW
		}
	case TopoMesh:
		x, y := s.meshXY(chip)
		dx, dy := s.meshXY(dc)
		switch {
		case dx > x:
			return meshE
		case dx < x:
			return meshW
		case dy < y:
			return meshN
		default:
			return meshS
		}
	case TopoFatTree:
		if chip >= s.leaves() {
			// Spine: straight down; spine s's local port l reaches leaf l.
			return dc
		}
		// Leaf: up to the spine chosen by destination parity.
		if e%2 == 0 {
			return ftUp0
		}
		return ftUp1
	}
	panic("cluster: NextHopPort on invalid spec")
}

// chipTable compiles chip's route table: every external /8 prefix bound
// to the local port NextHopPort picks — the same shared binding helper
// the single-chip canonical table uses.
func (s Spec) chipTable(chip int) *lookup.Patricia {
	return router.BindPorts(s.Externals(), func(e int) lookup.NextHop {
		return lookup.NextHop(s.NextHopPort(chip, e))
	})
}

// lowSide reports whether chip c sits on the low side of the canonical
// bisection cut: the first half of a ring, the west half of a mesh
// (north half for 1-wide meshes), and the first half of a fat-tree's
// leaves (spines sit on the cut, so a leaf uplink crosses it exactly
// when its leaf is in the low half).
func (s Spec) lowSide(c int) bool {
	switch s.Kind {
	case TopoRing:
		return c < s.Chips/2
	case TopoMesh:
		x, y := s.meshXY(c)
		if s.W > 1 {
			return x < s.W/2
		}
		return y < s.H/2
	case TopoFatTree:
		// Spines sit on the cut; count a trunk as crossing when its leaf
		// endpoint is in the low half.
		return c < s.leaves()/2
	}
	return false
}

// BisectionTrunks returns the indices (into Trunks()) of the links that
// cross the canonical bisection cut — the links whose aggregate
// bandwidth caps all-to-all scaling.
func (s Spec) BisectionTrunks() []int {
	var out []int
	for i, t := range s.Trunks() {
		if s.lowSide(t.A) != s.lowSide(t.B) {
			out = append(out, i)
		}
	}
	return out
}
