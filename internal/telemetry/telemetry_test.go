package telemetry

import (
	"testing"

	"repro/internal/trace"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 15, 16}, {(1 << 16) - 1, 16}, {1 << 16, 17}, {1 << 40, 17},
	}
	for _, c := range cases {
		before := h.Buckets[c.bucket]
		h.Observe(c.v)
		if h.Buckets[c.bucket] != before+1 {
			t.Errorf("Observe(%d): bucket %d not incremented", c.v, c.bucket)
		}
	}
	if h.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count, len(cases))
	}
	if h.Max != 1<<40 {
		t.Errorf("Max = %d, want %d", h.Max, int64(1)<<40)
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", BucketUpper(0))
	}
	if BucketUpper(3) != 7 {
		t.Errorf("BucketUpper(3) = %d, want 7", BucketUpper(3))
	}
	if BucketUpper(NumBuckets-1) != -1 {
		t.Errorf("BucketUpper(last) = %d, want -1 (+Inf)", BucketUpper(NumBuckets-1))
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.RecordQuantum(QuantumSample{Quantum: 1})
	c.RecordEvent(trace.Event{Kind: trace.EvDegrade})
	if c.Quanta() != 0 {
		t.Fatal("nil collector counted quanta")
	}
	if c.RecentQuanta() != nil || c.RecentEvents() != nil {
		t.Fatal("nil collector returned ring contents")
	}
	s := c.Snapshot()
	if s.Schema != SchemaVersion || s.Quanta != 0 || s.Recent != nil || s.Events != nil ||
		s.EventTotals != nil || s.Ports[3].Port != 3 || s.Tiles[15].Tile != 15 {
		t.Fatalf("nil-collector snapshot wrong: %+v", s)
	}
	// All three exporters must work on a counters-only snapshot.
	for _, f := range Formats() {
		if _, err := s.Encode(f); err != nil {
			t.Errorf("Encode(%q) on nil-collector snapshot: %v", f, err)
		}
	}
}

func TestRecordQuantumDeltas(t *testing.T) {
	c := New(Config{})
	c.RecordQuantum(QuantumSample{
		Quantum: 1, Cycle: 300, Token: 0,
		ReqMask: 0b0011, GrantMask: 0b0001,
		FragWords: [NumPorts]int{24, 0, 0, 0},
		Dropped:   [NumPorts]int64{2, 0, 0, 0},
	})
	c.RecordQuantum(QuantumSample{
		Quantum: 2, Cycle: 600, Token: 1,
		ReqMask: 0b0011, GrantMask: 0b0010,
		FragWords: [NumPorts]int{0, 16, 0, 0},
		Dropped:   [NumPorts]int64{5, 1, 0, 0},
	})
	if c.Quanta() != 2 {
		t.Fatalf("Quanta = %d, want 2", c.Quanta())
	}
	if c.grants[0] != 1 || c.grants[1] != 1 || c.denies[0] != 1 || c.denies[1] != 1 {
		t.Errorf("grants/denies wrong: %v %v", c.grants, c.denies)
	}
	if c.wordsGranted[0] != 24 || c.wordsGranted[1] != 16 {
		t.Errorf("wordsGranted wrong: %v", c.wordsGranted)
	}
	recent := c.RecentQuanta()
	if len(recent) != 2 {
		t.Fatalf("RecentQuanta len = %d, want 2", len(recent))
	}
	// First record's drops are the raw cumulative value; second is a delta.
	if recent[0].Drops[0] != 2 {
		t.Errorf("first record drops = %d, want 2", recent[0].Drops[0])
	}
	if recent[1].Drops[0] != 3 || recent[1].Drops[1] != 1 {
		t.Errorf("second record drops = %v, want [3 1 0 0]", recent[1].Drops)
	}
}

func TestTokenWait(t *testing.T) {
	c := New(Config{})
	grant := func(q int64, port int) {
		c.RecordQuantum(QuantumSample{
			Quantum: q, GrantMask: 1 << port, ReqMask: 1 << port,
		})
	}
	grant(1, 0) // first grant: wait 0
	grant(2, 0) // consecutive: wait 0
	grant(5, 0) // skipped 3,4: wait 2
	h := c.tokenWait[0]
	if h.Count != 3 || h.Sum != 2 || h.Max != 2 {
		t.Errorf("token-wait hist = count %d sum %d max %d, want 3 2 2", h.Count, h.Sum, h.Max)
	}
}

func TestRingWraparound(t *testing.T) {
	c := New(Config{RingQuanta: 4, RingEvents: 2})
	for q := int64(1); q <= 10; q++ {
		c.RecordQuantum(QuantumSample{Quantum: q, Cycle: q * 100})
	}
	recent := c.RecentQuanta()
	if len(recent) != 4 {
		t.Fatalf("ring len = %d, want 4", len(recent))
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if recent[i].Quantum != want {
			t.Errorf("ring[%d].Quantum = %d, want %d (oldest first)", i, recent[i].Quantum, want)
		}
	}
	for i := 0; i < 5; i++ {
		c.RecordEvent(trace.Event{Cycle: int64(i), Kind: trace.EvLineDown})
	}
	evs := c.RecentEvents()
	if len(evs) != 2 || evs[0].Cycle != 3 || evs[1].Cycle != 4 {
		t.Errorf("event ring = %+v, want cycles 3,4 oldest first", evs)
	}
}

func TestSnapshotImmutable(t *testing.T) {
	c := New(Config{})
	c.RecordQuantum(QuantumSample{Quantum: 1, GrantMask: 1, ReqMask: 1,
		FragWords: [NumPorts]int{8, 0, 0, 0}})
	s := c.Snapshot()
	if s.Ports[0].GrantedQuanta != 1 || s.Ports[0].WordsGranted != 8 {
		t.Fatalf("snapshot counters wrong: %+v", s.Ports[0])
	}
	// Mutating the collector after the snapshot must not change it.
	c.RecordQuantum(QuantumSample{Quantum: 2, GrantMask: 1, ReqMask: 1,
		FragWords: [NumPorts]int{8, 0, 0, 0}})
	if s.Quanta != 1 || len(s.Recent) != 1 || s.Ports[0].GrantedQuanta != 1 {
		t.Fatal("snapshot mutated by later RecordQuantum")
	}
}
