package cluster

import (
	"fmt"
	"sort"

	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/trace"
)

// Fault-aware fabric healing. Three cooperating mechanisms keep an
// N-chip fabric delivering through chip and trunk loss:
//
//  1. Adaptive rerouting. Every kill/restore (chip or trunk) opens a
//     heal epoch: the fabric recomputes each chip's route table against
//     the surviving topology (BFS shortest paths over live chips and
//     live trunks, static-discipline tie-breaks) and installs changed
//     tables through Router.UpdateTable. Tables stay dense — every
//     external /8 keeps a next hop, unreachable destinations keep their
//     static one — so the compiled fast engine stays armed and the hot
//     path never consults liveness.
//  2. Trunk-level ARQ. Trunk frames are sequence-counted per direction;
//     complete frames stranded at a dark trunk or a dead endpoint move
//     into a bounded retransmit queue and are re-driven into their
//     source chip's pins under seeded exponential backoff, where the
//     healed table routes them over the detour path.
//  3. End-to-end delivery accounting. Edge ingress stamps each flow's
//     packets with a per-flow sequence (Header.ID); egress suppresses
//     duplicates through a sliding window; and a fabric-wide word
//     ledger extends trunk conservation to the end-to-end invariant
//     injected == delivered + droppedWithCause (+ in-flight terms),
//     checked by DeliveryError. A surviving topology that is
//     disconnected fails loudly with a typed PartitionError instead of
//     holding frames forever.
//
// All healing state is replay-deterministic and serialized into
// FABCKPT1 blobs; recomputed tables restore through the router's
// recorded table-update log, so a mid-heal checkpoint restores
// byte-identically.

// HealConfig arms the healing plane. The zero value disables it.
type HealConfig struct {
	// Enabled arms adaptive rerouting, trunk ARQ, and flow tagging.
	Enabled bool
	// Seed salts the retransmit jitter.
	Seed uint64
}

// The trunk ARQ's bounds. Each trunk direction queues at most arqWindow
// frames for retransmission; frames beyond it are dropped and counted
// (arq-window). A frame whose destination stays unreachable is re-driven
// at most arqMaxTries times, then dropped and counted (arq-exhausted);
// attempt k waits arqBackoff << min(k,4) cycles plus seeded jitter.
const (
	arqWindow   = 64
	arqMaxTries = 8
	arqBackoff  = 256
)

// Drop causes for the end-to-end ledger. Every word that enters the
// fabric and does not reach an external sink is counted under exactly
// one cause, keeping injected == delivered + droppedWithCause.
const (
	dropDeadPort     = iota // offered at a dead chip's external port
	dropDestDead            // destination external's chip is dead
	dropUnreachable         // destination partitioned away from the ingress chip
	dropChipLoss            // resident in (or committed to) a chip when it was killed
	dropTrunkDead           // dropped at a dark trunk or dead endpoint (healing off)
	dropFrameResync         // trunk framer resynchronized past unparseable words
	dropARQWindow           // retransmit window overflow
	dropARQExhausted        // retransmit attempts exhausted while unreachable
	numDropCauses
)

// DropCauseNames are the ledger's stable cause labels, in counter order.
var DropCauseNames = [numDropCauses]string{
	"dead-port", "dest-dead", "unreachable", "chip-loss",
	"trunk-dead", "frame-resync", "arq-window", "arq-exhausted",
}

// PartitionError reports a disconnected surviving topology: at least one
// pair of live chips has no live trunk path. The fabric keeps running —
// reachable traffic still delivers and unreachable offers are counted —
// but DeliveryError surfaces this error until a restore reconnects the
// fabric, so a partitioned run fails loudly instead of timing out on
// frames that can never deliver.
type PartitionError struct {
	Spec       Spec
	Epoch      int64
	DeadChips  []int
	DeadTrunks []string
	Isolated   []int // live chips with zero live trunks
	Components int   // connected components among live chips
}

func (e *PartitionError) Error() string {
	msg := fmt.Sprintf("cluster: %s partitioned at heal epoch %d: %d live components, isolated %v (dead chips %v, dead trunks %v)",
		e.Spec, e.Epoch, e.Components, e.Isolated, e.DeadChips, e.DeadTrunks)
	if risk := e.Spec.PartitionRisk(); risk != "" {
		msg += " — " + risk
	}
	return msg
}

// arqFrame is one trunk frame in retransmit custody: a whole IP packet
// stranded at a failed trunk, waiting to be re-driven into its source
// chip's pins (where the healed table routes the detour).
type arqFrame struct {
	trunk, dir int
	src, port  int // re-drive chip and chip-local port
	dstExt     int
	seq        int64
	attempts   int
	nextTry    int64
	words      []uint32
}

// dupWindow is the egress duplicate-suppression window in sequence
// numbers (per flow). Reordering beyond it is indistinguishable from a
// duplicate and is suppressed.
const dupWindow = 1024

// egressFlow is one flow's duplicate-suppression state at egress: the
// highest sequence seen and a sliding bitmap of the last dupWindow.
type egressFlow struct {
	init bool
	max  uint16
	bits [dupWindow / 64]uint64
}

func (fl *egressFlow) get(seq uint16) bool {
	i := int(seq) % dupWindow
	return fl.bits[i/64]&(1<<(i%64)) != 0
}

func (fl *egressFlow) set(seq uint16) {
	i := int(seq) % dupWindow
	fl.bits[i/64] |= 1 << (i % 64)
}

func (fl *egressFlow) clear(seq uint16) {
	i := int(seq) % dupWindow
	fl.bits[i/64] &^= 1 << (i % 64)
}

// dup records seq and reports whether it was already delivered.
func (fl *egressFlow) dup(seq uint16) bool {
	if !fl.init {
		fl.init = true
		fl.max = seq
		fl.set(seq)
		return false
	}
	d := int16(seq - fl.max)
	switch {
	case d > 0:
		if int(d) >= dupWindow {
			for i := range fl.bits {
				fl.bits[i] = 0
			}
		} else {
			for s := uint16(1); s <= uint16(d); s++ {
				fl.clear(fl.max + s)
			}
		}
		fl.max = seq
		fl.set(seq)
		return false
	case int(d) <= -dupWindow:
		return true // beyond the window: indistinguishable from a dup
	default:
		if fl.get(seq) {
			return true
		}
		fl.set(seq)
		return false
	}
}

// flowKey identifies a flow by its source /8 and destination external.
func flowKey(src ip.Addr, dstExt int) uint32 {
	return uint32(src)>>24<<16 | uint32(dstExt)&0xffff
}

// extOfAddr maps a fabric address to its external port, or -1.
func (f *Fabric) extOfAddr(a uint32) int {
	e := int(a>>24) - 10
	if e < 0 || e >= f.spec.Externals() {
		return -1
	}
	return e
}

func (f *Fabric) healOn() bool { return f.heal.Enabled }

// reachable reports whether live chip a can reach live chip b over live
// trunks (true until the first heal epoch computes the matrix).
func (f *Fabric) reachable(a, b int) bool {
	if f.reach == nil {
		return true
	}
	return f.reach[a][b]
}

// staticPorts returns chip's static (healthy-topology) next-hop ports.
func (f *Fabric) staticPorts(chip int) []int {
	ports := make([]int, f.spec.Externals())
	for e := range ports {
		ports[e] = f.spec.NextHopPort(chip, e)
	}
	return ports
}

// computeRoutes derives the healed routing state from the current dead
// sets: per-chip next-hop ports (BFS shortest paths over the surviving
// topology, preferring the static discipline's port on ties, then the
// lowest port), the live-chip reachability matrix, the live chips with
// no live trunks, and the live component count. Pure — it mutates
// nothing — so checkpoint restore re-derives identical state.
func (f *Fabric) computeRoutes() (ports [][]int, reach [][]bool, isolated []int, comps int) {
	n := len(f.chips)
	type edge struct{ to, port int }
	adj := make([][]edge, n)
	for ti := range f.trunks {
		t := &f.trunks[ti]
		if t.dead || f.chips[t.A].dead || f.chips[t.B].dead {
			continue
		}
		adj[t.A] = append(adj[t.A], edge{to: t.B, port: t.APort})
		adj[t.B] = append(adj[t.B], edge{to: t.A, port: t.BPort})
	}

	const inf = int(1) << 30
	// dist[dc][c]: live-trunk hop count from chip c to destination dc.
	dist := make([][]int, n)
	for dc := 0; dc < n; dc++ {
		d := make([]int, n)
		for i := range d {
			d[i] = inf
		}
		dist[dc] = d
		if f.chips[dc].dead {
			continue
		}
		d[dc] = 0
		queue := []int{dc}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, e := range adj[c] {
				if d[e.to] == inf {
					d[e.to] = d[c] + 1
					queue = append(queue, e.to)
				}
			}
		}
	}

	reach = make([][]bool, n)
	for a := 0; a < n; a++ {
		reach[a] = make([]bool, n)
		for b := 0; b < n; b++ {
			reach[a][b] = !f.chips[a].dead && !f.chips[b].dead && dist[b][a] < inf
		}
	}

	for c := 0; c < n; c++ {
		if !f.chips[c].dead && len(adj[c]) == 0 && n > 1 {
			isolated = append(isolated, c)
		}
	}
	seen := make([]bool, n)
	for c := 0; c < n; c++ {
		if f.chips[c].dead || seen[c] {
			continue
		}
		comps++
		queue := []int{c}
		seen[c] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range adj[v] {
				if !seen[e.to] {
					seen[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}

	ports = make([][]int, n)
	for chip := 0; chip < n; chip++ {
		ps := make([]int, f.spec.Externals())
		for e := range ps {
			dc, dl := f.spec.ExtPort(e)
			static := f.spec.NextHopPort(chip, e)
			switch {
			case dc == chip:
				ps[e] = dl
			case f.chips[chip].dead || f.chips[dc].dead || dist[dc][chip] >= inf:
				// Keep the table dense: unreachable and dead-destination
				// prefixes retain the static next hop; the ledger counts
				// their traffic at ingress instead.
				ps[e] = static
			default:
				best, bestPort, staticOK := inf, -1, false
				for _, ed := range adj[chip] {
					switch {
					case dist[dc][ed.to] < best:
						best, bestPort, staticOK = dist[dc][ed.to], ed.port, ed.port == static
					case dist[dc][ed.to] == best:
						if ed.port == static {
							staticOK = true
						} else if ed.port < bestPort && !staticOK {
							bestPort = ed.port
						}
					}
				}
				if staticOK {
					bestPort = static
				}
				ps[e] = bestPort
			}
		}
		ports[chip] = ps
	}
	return ports, reach, isolated, comps
}

// applyHealState installs computeRoutes' result: the reachability
// matrix, the partition verdict, and — when apply is set — new route
// tables on every live chip whose next-hop assignment changed (counted
// as reroutes). Checkpoint restore calls it with apply=false: the
// replayed chips already hold the healed tables via the recorded
// table-update log, so re-poking would fork the log.
func (f *Fabric) applyHealState(apply bool) {
	ports, reach, isolated, comps := f.computeRoutes()
	f.reach = reach
	for k := range f.chips {
		changed := !equalPorts(f.routePorts[k], ports[k])
		f.routePorts[k] = ports[k]
		if !changed || f.chips[k].dead || !apply {
			continue
		}
		f.chips[k].r.UpdateTable(healedTable(f.spec, ports[k]))
		f.reroutes++
	}
	if comps > 1 || len(isolated) > 0 {
		var deadChips []int
		for k := range f.chips {
			if f.chips[k].dead {
				deadChips = append(deadChips, k)
			}
		}
		var deadTrunks []string
		for ti := range f.trunks {
			if f.trunks[ti].dead {
				deadTrunks = append(deadTrunks, f.trunks[ti].Trunk.String())
			}
		}
		f.partition = &PartitionError{
			Spec: f.spec, Epoch: f.healEpoch,
			DeadChips: deadChips, DeadTrunks: deadTrunks,
			Isolated: isolated, Components: comps,
		}
	} else {
		f.partition = nil
	}
}

// reheal opens a heal epoch after a lifecycle change: recompute routes
// against the surviving topology, swap changed tables, refresh the
// partition verdict, and log the epoch. No-op with healing disabled.
func (f *Fabric) reheal() {
	if !f.healOn() {
		return
	}
	f.healEpoch++
	wasPartitioned := f.partition != nil
	f.applyHealState(true)
	detail := fmt.Sprintf("dead chips %d, dead trunks %d", f.deadChipCount(), f.deadTrunkCount())
	f.events.AddDetail(f.cycle, int(f.healEpoch), trace.EvHealReroute, detail)
	if f.partition != nil && !wasPartitioned {
		f.events.AddDetail(f.cycle, int(f.healEpoch), trace.EvPartition,
			fmt.Sprintf("%d live components, isolated %v", f.partition.Components, f.partition.Isolated))
	}
}

func (f *Fabric) deadChipCount() int {
	n := 0
	for k := range f.chips {
		if f.chips[k].dead {
			n++
		}
	}
	return n
}

func (f *Fabric) deadTrunkCount() int {
	n := 0
	for ti := range f.trunks {
		if f.trunks[ti].dead {
			n++
		}
	}
	return n
}

func equalPorts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// healedTable compiles an explicit next-hop assignment into a route
// table (same dense /8 binding as the static chipTable).
func healedTable(s Spec, ports []int) *lookup.Patricia {
	return router.BindPorts(s.Externals(), func(e int) lookup.NextHop {
		return lookup.NextHop(ports[e])
	})
}

// findTrunk returns the first trunk between chips a and b (either
// orientation) with the wanted dead state, or -1.
func (f *Fabric) findTrunk(a, b int, dead bool) int {
	for ti := range f.trunks {
		t := &f.trunks[ti]
		if t.dead != dead {
			continue
		}
		if (t.A == a && t.B == b) || (t.A == b && t.B == a) {
			return ti
		}
	}
	return -1
}

// KillTrunk darkens the first live trunk between chips a and b: both
// chips keep running, but no words cross the link until RestoreTrunk.
// With healing enabled, frames stranded in the link's framers move to
// the retransmit queue and route tables detour around the link; without
// it, stranded words drop (counted, trunk-dead). Like KillChip, direct
// calls between Run calls are honored but not replayed by checkpoints —
// schedule killtrunk@ controls in runs that will be checkpointed.
func (f *Fabric) KillTrunk(a, b int) error {
	ti := f.findTrunk(a, b, false)
	if ti < 0 {
		return fmt.Errorf("cluster: no live trunk between c%d and c%d", a, b)
	}
	t := &f.trunks[ti]
	t.dead = true
	for d := 0; d < 2; d++ {
		if src, _, _, _ := t.endpoints(d); !f.chips[src].dead {
			f.drainPins(t, d)
		}
		f.strand(ti, t, d, dropTrunkDead)
	}
	f.events.AddDetail(f.cycle, ti, trace.EvTrunkKill, t.Trunk.String())
	f.reheal()
	return nil
}

// RestoreTrunk re-lights the first dead trunk between chips a and b.
// Frames held mid-parse in its framers resume delivery; with healing
// enabled the next heal epoch folds the link back into the route tables.
func (f *Fabric) RestoreTrunk(a, b int) error {
	ti := f.findTrunk(a, b, true)
	if ti < 0 {
		return fmt.Errorf("cluster: no dead trunk between c%d and c%d", a, b)
	}
	t := &f.trunks[ti]
	t.dead = false
	f.events.AddDetail(f.cycle, ti, trace.EvTrunkRestore, t.Trunk.String())
	f.reheal()
	return nil
}

// framesToARQ moves every complete frame in direction d's framer into
// the retransmit queue (the partial tail stays held until its words
// arrive or its source dies). Custody leaves the trunk (retrans
// counter); the ARQ plane delivers, defers, or drops each frame.
func (f *Fabric) framesToARQ(ti int, t *trunkState, d int) {
	td := &t.dir[d]
	src, srcPort, _, _ := t.endpoints(d)
	for {
		h, n := f.nextFrame(td)
		if n == 0 {
			return
		}
		frame := append([]uint32(nil), td.buf[:n]...)
		td.buf = append(td.buf[:0], td.buf[n:]...)
		td.retrans += int64(n)
		td.frames++
		f.arqEnqueue(ti, d, src, srcPort, uint32(h.Dst), frame)
	}
}

// arqEnqueue admits one stranded frame to the retransmit queue, or drops
// it with a counted cause (window overflow, unroutable destination).
func (f *Fabric) arqEnqueue(ti, d, src, port int, dst uint32, frame []uint32) {
	n := int64(len(frame))
	f.arqSeq++
	dstExt := f.extOfAddr(dst)
	if dstExt < 0 {
		f.droppedCause[dropFrameResync] += n
		return
	}
	key := [2]int{ti, d}
	if f.arqPend[key] >= arqWindow {
		f.droppedCause[dropARQWindow] += n
		return
	}
	f.arqPend[key]++
	f.arq = append(f.arq, arqFrame{
		trunk: ti, dir: d, src: src, port: port, dstExt: dstExt,
		seq: f.arqSeq, nextTry: f.cycle + f.backoffDelay(0, f.arqSeq),
		words: frame,
	})
}

// backoffDelay is attempt k's retransmit delay: base << min(k,4) plus
// seeded jitter, so retries spread deterministically without lockstep.
func (f *Fabric) backoffDelay(attempt int, seq int64) int64 {
	shift := attempt
	if shift > 4 {
		shift = 4
	}
	j := splitmix64(f.heal.Seed ^ uint64(seq)*0x9E3779B97F4A7C15 ^ uint64(attempt)<<32)
	return arqBackoff<<shift + int64(j&63)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// processARQ runs at every slice boundary: due frames whose destination
// chip is live and reachable re-drive into their source chip's pins
// (the healed table routes the detour); unreachable frames back off
// exponentially until attempts exhaust; frames whose destination or
// source died drop with a counted cause.
func (f *Fabric) processARQ() {
	if len(f.arq) == 0 {
		return
	}
	kept := f.arq[:0]
	for i := range f.arq {
		e := f.arq[i]
		if e.nextTry > f.cycle {
			kept = append(kept, e)
			continue
		}
		n := int64(len(e.words))
		dc, _ := f.spec.ExtPort(e.dstExt)
		key := [2]int{e.trunk, e.dir}
		switch {
		case f.chips[dc].dead:
			f.droppedCause[dropDestDead] += n
			f.arqPend[key]--
		case f.chips[e.src].dead:
			f.droppedCause[dropChipLoss] += n
			f.arqPend[key]--
		case !f.reachable(e.src, dc):
			e.attempts++
			if e.attempts >= arqMaxTries {
				f.droppedCause[dropARQExhausted] += n
				f.arqPend[key]--
			} else {
				e.nextTry = f.cycle + f.backoffDelay(e.attempts, e.seq)
				kept = append(kept, e)
			}
		default:
			in := f.chips[e.src].r.InputPins(e.port)
			for _, w := range e.words {
				in.Push(raw.Word(w))
			}
			f.chips[e.src].wordsIn += n
			f.retransFrames++
			f.retransWords += n
			f.trunks[e.trunk].dir[e.dir].acked++
			f.arqPend[key]--
		}
	}
	f.arq = kept
}

// chipExtOut sums the words chip k's current instance delivered at its
// external ports.
func (f *Fabric) chipExtOut(k int) int64 {
	var n int64
	for e := 0; e < f.spec.Externals(); e++ {
		chip, local := f.spec.ExtPort(e)
		if chip == k {
			n += f.chips[k].r.OutputWords(local)
		}
	}
	return n
}

// DropCount is one ledger cause with its word count.
type DropCount struct {
	Cause string
	Words int64
}

// Delivery is the end-to-end ledger snapshot: every word offered at an
// external port is either delivered (uniquely), a suppressed duplicate,
// dropped under a named cause, or still in flight (resident in a chip,
// held in a trunk framer, or pending retransmit).
type Delivery struct {
	Injected  int64 // words offered at external ports (dead-port offers included)
	Delivered int64 // unique words delivered at external sinks (retired instances included)
	DupWords  int64 // duplicate words suppressed at egress
	Resident  int64 // words inside live chips
	Held      int64 // words in trunk framers
	Pending   int64 // words in the retransmit queue
	Dropped   []DropCount

	PendingFrames int64
	RetransFrames int64
	RetransWords  int64
	HealEpochs    int64
	Reroutes      int64
	Partitioned   bool
}

// DroppedTotal sums the ledger's cause counters.
func (d Delivery) DroppedTotal() int64 {
	var n int64
	for _, c := range d.Dropped {
		n += c.Words
	}
	return n
}

// Delivery assembles the end-to-end ledger (see DeliveryError for the
// invariant it must satisfy).
func (f *Fabric) Delivery() Delivery {
	d := Delivery{
		Injected:      f.injected,
		DupWords:      f.dupWords,
		PendingFrames: int64(len(f.arq)),
		RetransFrames: f.retransFrames,
		RetransWords:  f.retransWords,
		HealEpochs:    f.healEpoch,
		Reroutes:      f.reroutes,
		Partitioned:   f.partition != nil,
	}
	emitted := f.retiredExtOut
	perChipExt := make([]int64, len(f.chips))
	for e := 0; e < f.spec.Externals(); e++ {
		chip, local := f.spec.ExtPort(e)
		if !f.chips[chip].dead {
			w := f.chips[chip].r.OutputWords(local)
			emitted += w
			perChipExt[chip] += w
		}
	}
	d.Delivered = emitted - f.dupWords
	for k := range f.chips {
		if !f.chips[k].dead {
			d.Resident += f.chips[k].wordsIn - f.chips[k].wordsOut - perChipExt[k]
		}
	}
	for ti := range f.trunks {
		for dd := 0; dd < 2; dd++ {
			d.Held += int64(len(f.trunks[ti].dir[dd].buf))
		}
	}
	for _, e := range f.arq {
		d.Pending += int64(len(e.words))
	}
	for c := 0; c < numDropCauses; c++ {
		d.Dropped = append(d.Dropped, DropCount{Cause: DropCauseNames[c], Words: f.droppedCause[c]})
	}
	return d
}

// DeliveryError checks the end-to-end delivery guarantee on top of
// trunk conservation: every injected word is accounted —
//
//	injected == delivered + duplicates + droppedWithCause
//	            + resident + held + pending
//
// at any instant, for healing on or off (with healing off the in-flight
// and duplicate terms are the only paths words take besides delivery
// and counted drops). At quiescence the in-flight terms are zero and
// the invariant collapses to injected == delivered + droppedWithCause.
// While the surviving topology is partitioned it returns the typed
// *PartitionError. The ledger assumes fabric traffic (packets no larger
// than the MTU, no edge-drop faults on external ports) — the regime
// every fabric harness runs.
func (f *Fabric) DeliveryError() error {
	if err := f.ConservationError(); err != nil {
		return err
	}
	if f.partition != nil {
		return f.partition
	}
	d := f.Delivery()
	want := d.Delivered + d.DupWords + d.DroppedTotal() + d.Resident + d.Held + d.Pending
	if d.Injected != want {
		return fmt.Errorf("cluster: end-to-end ledger leaks words: injected %d != delivered %d + dup %d + dropped %d + resident %d + held %d + pending %d",
			d.Injected, d.Delivered, d.DupWords, d.DroppedTotal(), d.Resident, d.Held, d.Pending)
	}
	return nil
}

// DroppedByCause returns the ledger counter for a named cause (tests).
func (f *Fabric) DroppedByCause(cause string) int64 {
	for c := 0; c < numDropCauses; c++ {
		if DropCauseNames[c] == cause {
			return f.droppedCause[c]
		}
	}
	return 0
}

// sortedFlowKeys returns a map's keys in ascending order (deterministic
// serialization and fingerprints).
func sortedFlowKeys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
