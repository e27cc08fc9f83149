package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
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

// TestEncodeChecksLength: Encode returns what the writer wrote and fails
// when that is not the declared length.
func TestEncodeChecksLength(t *testing.T) {
	write := func(w io.Writer) error {
		_, err := w.Write([]byte("RAWCKPT1"))
		return err
	}
	if b, err := wire.Encode(8, write); err != nil || string(b) != "RAWCKPT1" {
		t.Fatalf("Encode = %q, %v", b, err)
	}
	for _, n := range []int{0, 7, 9} {
		if _, err := wire.Encode(n, write); err == nil {
			t.Errorf("Encode declared %d bytes and accepted 8", n)
		}
	}
}

// TestWriteFileReplacesAtomically: a write that fails partway through
// leaves the previous file byte-identical and no temporary file behind;
// one that succeeds replaces it whole.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	old := bytes.Repeat([]byte("old checkpoint "), 1000)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	// The failing writer gets past the buffered writer's first flush, so
	// the temporary file holds bytes when it is abandoned.
	errCut := errors.New("cut")
	err := wire.WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(make([]byte, 64<<10)); err != nil {
			return err
		}
		return errCut
	})
	if !errors.Is(err, errCut) {
		t.Fatalf("WriteFile = %v, want the writer's error", err)
	}
	files := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("previous file changed by a failed write (%d bytes, %v)", len(got), err)
	}
	if names := files(); len(names) != 1 {
		t.Fatalf("failed write left %v", names)
	}

	fresh := []byte("new checkpoint")
	err = wire.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(fresh)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("file after write = %q, %v", got, err)
	}
	if names := files(); len(names) != 1 {
		t.Fatalf("write left %v", names)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("file mode = %v", fi.Mode())
	}
}
