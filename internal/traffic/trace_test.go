package traffic_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/traffic"
	"repro/internal/wire/wiretest"
)

func testTraceSpec() traffic.Spec {
	return traffic.Spec{
		Pattern: "flows", Size: 256, Seed: 11, Rate: 0.5,
		Sizes: []int{64, 576, 1500}, Weights: []float64{7, 4, 1},
	}
}

// TestTraceRoundTrip: Encode(Parse(Encode(t))) is byte-identical, the
// file round trip preserves everything, and the re-bucketed replay
// process reproduces the recorded arrivals exactly.
func TestTraceRoundTrip(t *testing.T) {
	w := traffic.MustBuild(testTraceSpec())
	const cyc, slices = 512, 24
	tr, err := traffic.Record(w, cyc, slices)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("recorded nothing")
	}

	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := traffic.ParseTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("trace does not re-encode byte-identically")
	}

	path := filepath.Join(t.TempDir(), "trace.traf")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := traffic.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	enc3, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc3) {
		t.Fatal("file round trip is not byte-identical")
	}

	// Replay through the trace process: every slice equals the live one.
	proc, err := w.OpenLoop(cyc)
	if err != nil {
		t.Fatal(err)
	}
	replay := loaded.Process(cyc)
	for k := int64(0); k < slices; k++ {
		live, rep := proc.Slice(k), replay.Slice(k)
		if len(live) != len(rep) {
			t.Fatalf("slice %d: %d live vs %d replayed arrivals", k, len(live), len(rep))
		}
		for i := range live {
			if live[i] != rep[i] {
				t.Fatalf("slice %d arrival %d: live %+v vs replay %+v", k, i, live[i], rep[i])
			}
		}
	}

	// DstWords matches a direct sum over arrivals.
	want := make([]int64, loaded.NumPorts)
	for _, a := range loaded.Arrivals {
		want[a.Pkt.Dst] += int64((a.Pkt.SizeBytes + 3) / 4)
	}
	got := loaded.DstWords()
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("dst %d ledger %d, want %d", d, got[d], want[d])
		}
	}
}

// TestTraceRejects: corruption, truncation, and foreign blobs all fail
// parse, loudly.
func TestTraceRejects(t *testing.T) {
	w := traffic.MustBuild(testTraceSpec())
	tr, err := traffic.Record(w, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traffic.ParseTrace(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated trace accepted")
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 1
	if _, err := traffic.ParseTrace(flipped); err == nil {
		t.Fatal("corrupted trace accepted (checksum not enforced)")
	}
	if _, err := traffic.ParseTrace([]byte("SRVCKPT1 not a trace")); err == nil {
		t.Fatal("foreign blob accepted")
	}
	if _, err := traffic.ParseTrace(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

// smallTraceBody records 200 cycles of the test workload and returns
// the TRAF1 blob without its checksum trailer.
func smallTraceBody(t testing.TB) []byte {
	tr, err := traffic.Record(traffic.MustBuild(testTraceSpec()), 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("recorded nothing")
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc[:len(enc)-8]
}

// seal appends the FNV-64a trailer, so a mutated body gets past the
// checksum to the framing.
func seal(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

// TestTraceHostileInput: a TRAF1 body cut at any 8-byte boundary or with
// any count set to 1<<62, resealed with a valid checksum, is rejected
// with an error, never a panic.
func TestTraceHostileInput(t *testing.T) {
	body := smallTraceBody(t)
	w := wiretest.NewWalker(body)
	w.Magic("TRAF1\x00\x00\x00")
	w.Bytes(2 * 8) // slice cycles, ports
	w.Blob()       // spec JSON
	w.Bytes(40 * w.Count(40))
	if err := w.Done(); err != nil {
		t.Fatal(err)
	}
	wiretest.Reject(t, func(b []byte) error {
		_, err := traffic.ParseTrace(seal(b))
		return err
	}, w.Cases())
}

// FuzzParseTrace: ParseTrace returns an error or succeeds on any sealed
// body, never panics, and a trace it accepts replays.
func FuzzParseTrace(f *testing.F) {
	f.Add(smallTraceBody(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		tr, err := traffic.ParseTrace(seal(body))
		if err != nil {
			return
		}
		tr.DstWords()
		tr.Process(0).Slice(0)
	})
}

// TestTracePattern: the "trace" registry pattern replays a recorded
// file through the ordinary Spec/Build pipeline.
func TestTracePattern(t *testing.T) {
	w := traffic.MustBuild(testTraceSpec())
	tr, err := traffic.Record(w, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "replay.traf")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	spec, err := traffic.ParseSpec("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := traffic.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := rw.OpenLoop(512)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for k := int64(0); k < 8; k++ {
		n += len(proc.Slice(k))
	}
	if n != len(tr.Arrivals) {
		t.Fatalf("trace pattern replayed %d arrivals, recorded %d", n, len(tr.Arrivals))
	}
}

// TestTraceClosedLoop: a closed-loop trace source replays its port's
// recorded packets in order and starts over when they run out, and a
// port the trace does not name, or holds no arrivals for, is an error
// rather than an endless search for the next arrival.
func TestTraceClosedLoop(t *testing.T) {
	w := traffic.MustBuild(traffic.Spec{Pattern: "uniform", Size: 256, Seed: 3, Rate: 0.5,
		Sizes: []int{64, 1500}, Weights: []float64{3, 1}})
	tr, err := traffic.Record(w, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "imix.traf")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	spec, err := traffic.ParseSpec("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	rw := traffic.MustBuild(spec)
	var first []traffic.Pkt
	for _, a := range tr.Arrivals {
		if a.Port == 1 {
			first = append(first, a.Pkt)
		}
	}
	if len(first) == 0 {
		t.Fatal("port 1 recorded no arrivals")
	}
	src, err := rw.Source(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*len(first); i++ {
		if got, want := src.Next(), first[i%len(first)]; got != want {
			t.Fatalf("packet %d (pass %d) = %+v, want %+v", i, i/len(first)+1, got, want)
		}
	}

	spec.Ports = 16 // re-pointed past the ports the trace names
	if _, err := traffic.MustBuild(spec).Source(9); err == nil {
		t.Error("Source(9) on a 4-port trace re-pointed at 16 ports: no error")
	}
	quiet := &traffic.Trace{NumPorts: 2, Arrivals: []traffic.Arrival{tr.Arrivals[0]}}
	quiet.Arrivals[0].Port = 0
	if _, err := quiet.Source(1); err == nil {
		t.Error("Source of a port with no arrivals: no error")
	}
}
