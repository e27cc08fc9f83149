package traffic

// TRAF1 — the replayable binary trace format. A trace is a recorded
// window of an open-loop arrival process: the generating Spec (as JSON,
// for provenance), the slice length it was recorded on, and every
// timestamped arrival. It shares the checkpoints' encoding — an 8-byte
// magic and little-endian u64 framing, decoded through internal/wire —
// and adds an FNV-64a trailer over everything that precedes it.
// Encode(Parse(b)) == b for any valid blob, so "recorded once,
// versioned forever" is testable as byte identity.
//
//	"TRAF1\x00\x00\x00"
//	u64 sliceCycles | u64 ports
//	u64 specLen | specLen bytes of Spec JSON
//	u64 count   | count × (u64 cycle, u64 flow,
//	                       u32 seq, u32 size, u32 port, u32 dst,
//	                       u32 srcIP, u32 dstIP)
//	u64 fnv64a of all preceding bytes

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"repro/internal/ip"
	"repro/internal/wire"
)

// specToJSON renders the provenance spec deterministically (struct field
// order is fixed; encoding/json sorts the Params map keys), so the same
// Trace always encodes to the same bytes.
func specToJSON(s Spec) ([]byte, error) { return json.Marshal(s) }

const traceMagic = "TRAF1\x00\x00\x00"

func init() {
	Register(Pattern{
		Name:     "trace",
		Doc:      "replay a recorded TRAF1 trace file (spec field trace=FILE)",
		Defaults: map[string]float64{},
		Source: func(s *Spec, port int, _ *RNG) (Source, error) {
			tr, err := LoadTrace(s.TracePath)
			if err != nil {
				return nil, err
			}
			return tr.Source(port)
		},
		Process: func(s *Spec, sliceCycles int64) (Process, error) {
			tr, err := LoadTrace(s.TracePath)
			if err != nil {
				return nil, err
			}
			return tr.Process(sliceCycles), nil
		},
		Check: func(s *Spec) error {
			if s.TracePath == "" {
				return fmt.Errorf("traffic: trace pattern needs a trace file (trace:FILE)")
			}
			return nil
		},
	})
}

// Trace is a decoded TRAF1 blob.
type Trace struct {
	// Spec is the generating workload spec (provenance; replay does not
	// re-run it).
	Spec Spec
	// SliceCyclesRec is the slice length the trace was recorded on.
	SliceCyclesRec int64
	// NumPorts is the port count the arrivals span.
	NumPorts int
	// Arrivals is the full recorded stream in canonical order.
	Arrivals []Arrival
}

// Record materializes the first `slices` slices of the workload's
// open-loop process into a trace.
func Record(w *Workload, sliceCycles, slices int64) (*Trace, error) {
	proc, err := w.OpenLoop(sliceCycles)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Spec: w.Spec, SliceCyclesRec: sliceCycles, NumPorts: proc.Ports()}
	for k := int64(0); k < slices; k++ {
		tr.Arrivals = append(tr.Arrivals, proc.Slice(k)...)
	}
	return tr, nil
}

// Encode serializes the trace to a TRAF1 blob.
func (t *Trace) Encode() ([]byte, error) {
	specJSON, err := specToJSON(t.Spec)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	b := make([]byte, 0, 64+len(specJSON)+40*len(t.Arrivals))
	b = append(b, traceMagic...)
	b = le.AppendUint64(b, uint64(t.SliceCyclesRec))
	b = le.AppendUint64(b, uint64(t.NumPorts))
	b = le.AppendUint64(b, uint64(len(specJSON)))
	b = append(b, specJSON...)
	b = le.AppendUint64(b, uint64(len(t.Arrivals)))
	for i := range t.Arrivals {
		a := &t.Arrivals[i]
		b = le.AppendUint64(b, uint64(a.Cycle))
		b = le.AppendUint64(b, a.Flow)
		b = le.AppendUint32(b, a.Seq)
		b = le.AppendUint32(b, uint32(a.Pkt.SizeBytes))
		b = le.AppendUint32(b, uint32(a.Port))
		b = le.AppendUint32(b, uint32(a.Pkt.Dst))
		b = le.AppendUint32(b, uint32(a.Pkt.SrcIP))
		b = le.AppendUint32(b, uint32(a.Pkt.DstIP))
	}
	h := fnv.New64a()
	h.Write(b)
	b = le.AppendUint64(b, h.Sum64())
	return b, nil
}

// ParseTrace decodes a TRAF1 blob, verifying framing and checksum.
func ParseTrace(b []byte) (*Trace, error) {
	bad := func(format string, args ...any) (*Trace, error) {
		return nil, fmt.Errorf("traffic: bad TRAF1 blob: "+format, args...)
	}
	if len(b) < 8 {
		return bad("truncated")
	}
	body, tail := b[:len(b)-8], b[len(b)-8:]
	r := wire.NewReader(body)
	if !r.Magic(traceMagic) {
		return bad("missing magic")
	}
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(tail) {
		return bad("checksum mismatch")
	}
	t := &Trace{}
	t.SliceCyclesRec = int64(r.U64())
	t.NumPorts = int(r.U64())
	specJSON := r.Blob()
	t.Arrivals = make([]Arrival, r.Count(40))
	for i := range t.Arrivals {
		a := &t.Arrivals[i]
		a.Cycle = int64(r.U64())
		a.Flow = r.U64()
		a.Seq = r.U32()
		a.Pkt.SizeBytes = int(r.U32())
		a.Port = int(r.U32())
		a.Pkt.Dst = int(r.U32())
		a.Pkt.SrcIP = ip.Addr(r.U32())
		a.Pkt.DstIP = ip.Addr(r.U32())
	}
	if err := r.Done(); err != nil {
		return bad("%v", err)
	}
	if t.SliceCyclesRec <= 0 || t.NumPorts < 1 || t.NumPorts > 1024 {
		return bad("sliceCycles %d / ports %d out of range", t.SliceCyclesRec, t.NumPorts)
	}
	for i := range t.Arrivals {
		a := &t.Arrivals[i]
		if a.Cycle < 0 || a.Port < 0 || a.Port >= t.NumPorts ||
			a.Pkt.Dst < 0 || a.Pkt.Dst >= t.NumPorts || a.Pkt.SizeBytes < ip.HeaderBytes {
			return bad("arrival %d out of range", i)
		}
	}
	if len(specJSON) > 0 {
		s, err := ParseSpecJSON(specJSON)
		if err != nil {
			return bad("embedded spec: %v", err)
		}
		t.Spec = s
	}
	return t, nil
}

// WriteFile atomically writes the trace next to path.
func (t *Trace) WriteFile(path string) error {
	b, err := t.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadTrace reads and decodes a TRAF1 file.
func LoadTrace(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: trace file: %w", err)
	}
	return ParseTrace(b)
}

// DstWords sums on-wire words per destination port — the ledger the
// cross-engine acceptance test compares delivered words against.
func (t *Trace) DstWords() []int64 {
	out := make([]int64, t.NumPorts)
	for i := range t.Arrivals {
		a := &t.Arrivals[i]
		out[a.Pkt.Dst] += int64(wordsOf(a.Pkt.SizeBytes))
	}
	return out
}

// Source returns a closed-loop source over one port's recorded
// packets: it replays them in order, timestamps dropped, and starts
// over from the first when they run out, so a closed-loop run may
// outlast the trace. A port the trace does not name, or one it holds
// no arrivals for, is an error.
func (t *Trace) Source(port int) (Source, error) {
	if port < 0 || port >= t.NumPorts {
		return nil, fmt.Errorf("traffic: trace has %d ports, not port %d", t.NumPorts, port)
	}
	var pkts []Pkt
	for i := range t.Arrivals {
		if t.Arrivals[i].Port == port {
			pkts = append(pkts, t.Arrivals[i].Pkt)
		}
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("traffic: trace holds no arrivals for port %d", port)
	}
	return &replaySource{pkts: pkts}, nil
}

// replaySource cycles through a fixed packet list.
type replaySource struct {
	pkts []Pkt
	next int
}

// Next implements Source.
func (s *replaySource) Next() Pkt {
	p := s.pkts[s.next]
	s.next = (s.next + 1) % len(s.pkts)
	return p
}

// Process returns a replay view of the trace on the given slice length
// (re-bucketing the timestamped arrivals; the recorded slice length
// need not match).
func (t *Trace) Process(sliceCycles int64) Process {
	if sliceCycles <= 0 {
		sliceCycles = t.SliceCyclesRec
	}
	return &traceProcess{tr: t, cyc: sliceCycles}
}

type traceProcess struct {
	tr  *Trace
	cyc int64
}

// Slice implements Process: the arrivals with Cycle in [k*S, (k+1)*S).
// The stored stream is in canonical order, so a contiguous cycle range
// is a contiguous slice of it.
func (p *traceProcess) Slice(k int64) []Arrival {
	arr := p.tr.Arrivals
	lo := sort.Search(len(arr), func(i int) bool { return arr[i].Cycle >= k*p.cyc })
	hi := sort.Search(len(arr), func(i int) bool { return arr[i].Cycle >= (k+1)*p.cyc })
	if lo == hi {
		return nil
	}
	return arr[lo:hi:hi]
}

// SliceCycles implements Process.
func (p *traceProcess) SliceCycles() int64 { return p.cyc }

// Ports implements Process.
func (p *traceProcess) Ports() int { return p.tr.NumPorts }
