package wire_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

func TestReaderReadsLittleEndian(t *testing.T) {
	le := binary.LittleEndian
	b := []byte("MAGIC")
	b = append(b, 0xab)
	b = le.AppendUint16(b, 0x1234)
	b = le.AppendUint32(b, 0xdeadbeef)
	b = le.AppendUint64(b, 1<<40+5)
	b = le.AppendUint64(b, 3)
	b = append(b, "xyz"...)
	r := wire.NewReader(b)
	if !r.Magic("MAGIC") {
		t.Fatal(r.Err())
	}
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0x1234 {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<40+5 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.Blob(); string(v) != "xyz" {
		t.Errorf("Blob = %q", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFailures: the first failure latches, later reads return
// zero, and Count bounds element counts by the bytes left.
func TestReaderFailures(t *testing.T) {
	le := binary.LittleEndian
	counted := func(n uint64, tail int) *wire.Reader {
		return wire.NewReader(append(le.AppendUint64(nil, n), make([]byte, tail)...))
	}
	cases := []struct {
		name string
		ok   bool
		read func() *wire.Reader
	}{
		{"bad magic", false, func() *wire.Reader { r := wire.NewReader([]byte("NOPE")); r.Magic("YEP!"); return r }},
		{"short magic", false, func() *wire.Reader { r := wire.NewReader([]byte("YE")); r.Magic("YEP!"); return r }},
		{"short u64", false, func() *wire.Reader { r := wire.NewReader(make([]byte, 7)); r.U64(); return r }},
		{"count fills the rest", true, func() *wire.Reader { r := counted(3, 12); r.Bytes(4 * r.Count(4)); return r }},
		{"count one past the rest", false, func() *wire.Reader { r := counted(4, 12); r.Count(4); return r }},
		{"count 1<<62", false, func() *wire.Reader { r := counted(1<<62, 12); r.Count(1); return r }},
		{"blob past the end", false, func() *wire.Reader { r := counted(13, 12); r.Blob(); return r }},
		{"trailing bytes", false, func() *wire.Reader { r := counted(0, 1); r.Count(1); return r }},
	}
	for _, c := range cases {
		r := c.read()
		if err := r.Done(); (err == nil) != c.ok {
			t.Errorf("%s: Done = %v", c.name, err)
		}
		if !c.ok && (r.U64() != 0 || r.Count(1) != 0 || r.Bytes(0) != nil) {
			t.Errorf("%s: reads after a failure return data", c.name)
		}
	}
}
