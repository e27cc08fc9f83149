// Package wiretest checks blob decoders against hostile input. From one
// valid blob it derives a cut at every 8-byte boundary and, for every
// u64 count field, a copy with that count set to 1<<62; a decoder must
// reject each of them with an error, never a panic.
package wiretest

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// Case is one hostile variant of a valid blob.
type Case struct {
	Name string
	Blob []byte
}

// Walker reads a valid blob the way its decoder does and records the
// offset of every count it reads.
type Walker struct {
	*wire.Reader
	blob   []byte
	Counts []int
}

// NewWalker returns a Walker at the start of blob.
func NewWalker(blob []byte) *Walker { return &Walker{Reader: wire.NewReader(blob), blob: blob} }

// Offset returns the number of bytes read so far.
func (w *Walker) Offset() int { return len(w.blob) - w.Len() }

// Count records the count's offset and reads it like wire.Reader.Count.
func (w *Walker) Count(size int) int {
	w.Counts = append(w.Counts, w.Offset())
	return w.Reader.Count(size)
}

// Blob reads a u64 byte length, recorded as a count, and that many bytes.
func (w *Walker) Blob() []byte { return w.Bytes(w.Count(1)) }

// Cases returns the walked blob cut at every 8-byte boundary, then with
// each recorded count set to 1<<62.
func (w *Walker) Cases() []Case {
	var cs []Case
	for n := 0; n < len(w.blob); n += 8 {
		cs = append(cs, Case{fmt.Sprintf("cut at %d", n), w.blob[:n]})
	}
	for _, off := range w.Counts {
		cs = append(cs, Case{fmt.Sprintf("count at %d = 1<<62", off), Set(w.blob, off, 1<<62)})
	}
	return cs
}

// Set returns a copy of blob with the u64 at off replaced by v.
func Set(blob []byte, off int, v uint64) []byte {
	b := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(b[off:], v)
	return b
}

// Reject fails t unless decode returns an error, without panicking, on
// every case.
func Reject(t testing.TB, decode func([]byte) error, cases []Case) {
	t.Helper()
	for _, c := range cases {
		if err := noPanic(decode, c.Blob); err == nil {
			t.Errorf("%s: accepted", c.Name)
		} else if p, ok := err.(panicked); ok {
			t.Errorf("%s: panicked: %v", c.Name, p.v)
		}
	}
}

type panicked struct{ v any }

func (p panicked) Error() string { return fmt.Sprint("panic: ", p.v) }

func noPanic(decode func([]byte) error, b []byte) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicked{v}
		}
	}()
	return decode(b)
}
