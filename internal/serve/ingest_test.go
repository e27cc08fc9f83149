package serve

import (
	"bytes"
	"testing"

	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/traffic"
	"repro/internal/wire/wiretest"
)

// TestWorkloadFeederPure: arrivals for a slice are a pure function of
// (spec, slice) — two feeders with the same spec agree packet for
// packet, which is what lets a restored daemon resume the identical
// stream.
func TestWorkloadFeederPure(t *testing.T) {
	spec := traffic.Spec{Pattern: "hotspot", Ports: 4, Size: 512, Seed: 9, Rate: 0.7}
	a := specFeeder(t, spec, 1024)
	b := specFeeder(t, spec, 1024)
	// Read b out of order (as a restore resuming mid-run would).
	want37 := b.Slice(37)
	for s := int64(0); s < 40; s++ {
		as := a.Slice(s)
		bs := b.Slice(s)
		for p := range as {
			if len(as[p]) != len(bs[p]) {
				t.Fatalf("slice %d port %d: %d vs %d packets", s, p, len(as[p]), len(bs[p]))
			}
			for i := range as[p] {
				if as[p][i].Header != bs[p][i].Header || as[p][i].LenWords() != bs[p][i].LenWords() {
					t.Fatalf("slice %d port %d packet %d differs", s, p, i)
				}
			}
			if s == 37 && len(as[p]) != len(want37[p]) {
				t.Fatalf("out-of-order read of slice 37 diverged on port %d", p)
			}
		}
	}
}

// TestWorkloadFeederRate: the fixed-point accumulator delivers the
// configured rate exactly over any horizon (no drift), per port.
func TestWorkloadFeederRate(t *testing.T) {
	const sliceCycles, ratePerMille, sizeBytes = 4096, 800, 1024
	f := specFeeder(t, traffic.Spec{Pattern: "uniform", Ports: 4, Size: sizeBytes, Seed: 1,
		Rate: float64(ratePerMille) / 1000}, sliceCycles)
	const slices = 64
	var words int64
	for s := int64(0); s < slices; s++ {
		for _, pkts := range f.Slice(s) {
			for i := range pkts {
				words += int64(pkts[i].LenWords())
			}
		}
	}
	perPort := words / 4
	budget := int64(slices * sliceCycles * ratePerMille / 1000)
	probe := ip.NewPacket(0, 0, 64, sizeBytes, 0)
	wordsPkt := int64(probe.LenWords())
	if perPort > budget || budget-perPort >= wordsPkt {
		t.Fatalf("per-port words %d, budget %d (residue must stay under one %d-word packet)",
			perPort, budget, wordsPkt)
	}
}

// TestAdmissionShedsNeverBlocks: arrivals beyond the queue bound are
// shed and counted; the ledger identity holds through offer, pump, and a
// forced discard.
func TestAdmissionShedsNeverBlocks(t *testing.T) {
	a := newAdmission(4, 1<<30)
	mk := func(n int) []ip.Packet {
		pkts := make([]ip.Packet, n)
		for i := range pkts {
			pkts[i] = ip.NewPacket(1, 2, 64, 256, uint16(i))
		}
		return pkts
	}
	a.offer([4][]ip.Packet{mk(10), mk(2), nil, mk(4)}, false)
	if !a.balanced() {
		t.Fatal("ledger unbalanced after offer")
	}
	if got := a.ledger[0].ShedPkts; got != 6 {
		t.Fatalf("port 0 shed %d packets, want 6 (10 offered into a 4-queue)", got)
	}
	if a.ledger[1].ShedPkts != 0 || a.ledger[3].ShedPkts != 0 {
		t.Fatalf("under-bound ports shed: %d %d", a.ledger[1].ShedPkts, a.ledger[3].ShedPkts)
	}

	// Clamped admission halves the bound: 2 more packets onto port 1's
	// 2-deep queue all shed.
	a.offer([4][]ip.Packet{nil, mk(2), nil, nil}, true)
	if got := a.ledger[1].ShedPkts; got != 2 {
		t.Fatalf("clamped offer shed %d, want 2", got)
	}

	// Pump against a backlog that accepts one packet's words then jams.
	probe := ip.NewPacket(1, 2, 64, 256, 0)
	words := probe.LenWords()
	fed := 0
	a.highWords = words + 1
	backlog := func(p int) int { return fed * words }
	a.pump(backlog, func(p int, pkt *ip.Packet) { fed++ })
	if fed == 0 {
		t.Fatal("pump admitted nothing")
	}
	if !a.balanced() {
		t.Fatal("ledger unbalanced after pump")
	}
	admitted := int64(0)
	for p := range a.ledger {
		admitted += a.ledger[p].AdmittedPkts
	}
	if admitted != int64(fed) {
		t.Fatalf("ledger admitted %d, pump fed %d", admitted, fed)
	}

	a.discardQueues()
	if !a.balanced() {
		t.Fatal("ledger unbalanced after discard")
	}
	for p := range a.ledger {
		if a.ledger[p].QueuedPkts != 0 || a.queuedWords(p) != 0 {
			t.Fatalf("port %d still queued after discard", p)
		}
	}
}

// TestCheckpointCodec: the SRVCKPT1 wrapper round-trips and rejects
// truncation and foreign blobs.
func TestCheckpointCodec(t *testing.T) {
	blob := []byte("RTRCKPT1 pretend router state")
	enc := encodeCheckpoint(1234, []uint64{7, 9, 9}, blob)
	slice, eras, got, err := decodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if slice != 1234 || len(eras) != 3 || eras[0] != 7 || eras[2] != 9 || string(got) != string(blob) {
		t.Fatalf("roundtrip = slice %d eras %v blob %q", slice, eras, got)
	}
	if _, _, _, err := decodeCheckpoint(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, _, _, err := decodeCheckpoint([]byte("RTRCKPT1 not a serve blob")); err == nil {
		t.Fatal("router blob accepted as serve checkpoint")
	}
	if _, _, _, err := decodeCheckpoint(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

// smallCheckpoint wraps a 200-cycle router checkpoint in SRVCKPT1 with
// two soak-window eras.
func smallCheckpoint(t testing.TB) []byte {
	rc := router.DefaultConfig()
	rc.Checkpoint = true
	r, err := router.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200)
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return encodeCheckpoint(3, []uint64{7, 9}, blob)
}

// TestCheckpointHostileInput: an SRVCKPT1 blob cut at any 8-byte
// boundary, with any count set to 1<<62, or with a negative slice index
// is rejected with an error, never a panic.
func TestCheckpointHostileInput(t *testing.T) {
	blob := smallCheckpoint(t)
	w := wiretest.NewWalker(blob)
	w.Magic(srvSnapMagic)
	w.U64() // slice
	w.Bytes(8 * w.Count(8))
	w.Blob()
	if err := w.Done(); err != nil {
		t.Fatal(err)
	}
	cases := append(w.Cases(), wiretest.Case{Name: "slice = -1", Blob: wiretest.Set(blob, 8, 1<<64-1)})
	wiretest.Reject(t, func(b []byte) error {
		_, _, _, err := decodeCheckpoint(b)
		return err
	}, cases)
}

// FuzzCheckpointDecode: decodeCheckpoint returns an error or succeeds on
// any bytes, never panics, and re-encoding what it accepts reproduces
// the input.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(smallCheckpoint(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		slice, eras, blob, err := decodeCheckpoint(b)
		if err == nil && !bytes.Equal(encodeCheckpoint(slice, eras, blob), b) {
			t.Fatal("re-encoding an accepted checkpoint changed its bytes")
		}
	})
}

// TestSLOGateTransitions drives the rolling-window evaluator directly:
// gates judge only on a full window, entering transitions emit once,
// clearing emits once, and the conservation gate is judged every slice.
func TestSLOGateTransitions(t *testing.T) {
	l := newSLOLoop(Gates{MinGbps: 10, MaxDropRate: 0.1, WindowSlices: 4}, 250e6)

	// Healthy slices: 1024 cycles, 1024 words out = 8 Gbps at 250 MHz
	// per... (1024*4 bytes / 1024 cycles) * 250e6 * 8 = 8 Gbps — below the
	// 10 Gbps gate, but not judged until the window fills.
	healthy := sloSample{cycles: 1024, outWords: 2048, offeredWords: 2048, shedWords: 0} // 16 Gbps
	for i := int64(0); i < 3; i++ {
		entered, cleared := l.observe(i, i*1024, healthy, true)
		if len(entered) != 0 || cleared {
			t.Fatalf("slice %d: judged before the window filled: %v %v", i, entered, cleared)
		}
	}
	if entered, _ := l.observe(3, 3*1024, healthy, true); len(entered) != 0 {
		t.Fatalf("healthy full window violated: %v", entered)
	}

	// Starve throughput and shed heavily: both threshold gates enter, once.
	sick := sloSample{cycles: 1024, outWords: 64, offeredWords: 2048, shedWords: 1024}
	var seen []Violation
	for i := int64(4); i < 10; i++ {
		entered, _ := l.observe(i, i*1024, sick, true)
		seen = append(seen, entered...)
	}
	gates := map[string]int{}
	for _, v := range seen {
		gates[v.Gate]++
	}
	if gates[GateThroughput] != 1 || gates[GateDropRate] != 1 {
		t.Fatalf("threshold gates entered %v, want one transition each", gates)
	}
	if !l.dropRateActive() {
		t.Fatal("drop-rate gate not active")
	}
	if av := l.activeViolations(); len(av) != 2 {
		t.Fatalf("active = %v, want 2", av)
	}

	// Recover: gates clear; the all-clear edge fires exactly once.
	clears := 0
	for i := int64(10); i < 20; i++ {
		_, cleared := l.observe(i, i*1024, healthy, true)
		if cleared {
			clears++
		}
	}
	if clears != 1 {
		t.Fatalf("slo-clear fired %d times, want 1", clears)
	}
	if l.total != 2 {
		t.Fatalf("total violations %d, want 2", l.total)
	}

	// Conservation judges immediately, window or not.
	fresh := newSLOLoop(Gates{}, 250e6)
	entered, _ := fresh.observe(0, 0, healthy, false)
	if len(entered) != 1 || entered[0].Gate != GateConservation {
		t.Fatalf("conservation breach = %v", entered)
	}
}
