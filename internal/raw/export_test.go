package raw

import "fmt"

// CheckParkSet reports the first violation of the fast engine's park-set
// invariants, or nil under the reference engine and while the fast
// engine awaits a rebuild. Between cycles:
//
//   - the awake set names no id past the last tile and leaves out
//     exactly the fe.parked parked tiles;
//   - every parked tile passes inert() with the state its record holds;
//   - every sleeping dynamic router is idle().
//
// A tile or router that reads an edge queue pushed since the last
// snapshot is exempt from the last two: the next snapshot wakes it.
func CheckParkSet(c *Chip) error {
	fe := c.fe
	if c.engine != EngineFast || fe == nil || c.feDirty {
		return nil
	}
	freshTile := make(map[int]bool)
	freshDyn := make(map[int]bool)
	for _, q := range c.fresh {
		freshTile[int(q.rd)] = true
		if q.dyn >= 0 {
			freshDyn[int(q.dyn)] = true
		}
	}
	n, parked := len(c.tiles), 0
	for id := 0; id < len(fe.awake)*64; id++ {
		switch {
		case id >= n:
			if fe.awake.has(id) {
				return fmt.Errorf("cycle %d: awake set names tile %d of %d", c.cycle, id, n)
			}
		case !fe.awake.has(id):
			parked++
			if freshTile[id] {
				continue
			}
			st, ok := fe.inert(c.tiles[id])
			if !ok {
				return fmt.Errorf("cycle %d: parked tile %d is not inert", c.cycle, id)
			}
			if st != fe.park[id].st {
				return fmt.Errorf("cycle %d: parked tile %d would count %v, its record %v", c.cycle, id, st, fe.park[id].st)
			}
		}
	}
	if parked != fe.parked {
		return fmt.Errorf("cycle %d: awake set leaves out %d tiles, %d parked", c.cycle, parked, fe.parked)
	}
	for j := range fe.dy {
		if fe.dy[j].asleep && !freshDyn[j] && !fe.dy[j].idle() {
			return fmt.Errorf("cycle %d: tile %d's dynamic router on network %d sleeps but is not idle",
				c.cycle, j/numDynNets, j%numDynNets)
		}
	}
	return nil
}
