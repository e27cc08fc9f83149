// Package wire reads and writes the repository's binary blobs: the
// RAWCKPT1, RTRCKPT1, FABCKPT1 and SRVCKPT1 checkpoints and TRAF1
// traces. All five share one encoding — an 8-byte magic, then
// little-endian integers, with variable-length parts framed by a u64
// count. Encoders append their fields with encoding/binary's
// LittleEndian.Append* into small buffers and write those, and any part
// already held in wire form, through one io.Writer: Encode collects the
// bytes into a buffer allocated once, WriteFile streams them into a file
// that replaces its destination atomically. Every decoder reads through
// a Reader.
//
// A Reader latches its first failure: later reads return zero values
// and Err reports the failure, so a decoder reads a record straight
// through and checks once. A count that sizes an allocation or a loop
// is read with Count, which fails unless that many elements could still
// fit in the unread bytes, so a corrupt length fails before anything is
// allocated. Done also fails on trailing bytes.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Reader is a bounds-checked little-endian cursor over a blob.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Done returns the first failure, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", r.Len())
	}
	return r.err
}

// Bytes returns the next n bytes (aliasing the blob), or nil once the
// reader has failed.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.short(n)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) short(n int) {
	r.err = fmt.Errorf("wire: short read: %d bytes at offset %d, %d left", n, r.off, r.Len())
}

// Magic consumes len(m) bytes and reports whether they spell m; a
// mismatch fails the reader.
func (r *Reader) Magic(m string) bool {
	if b := r.Bytes(len(m)); b != nil && string(b) != m {
		r.err = errors.New("wire: bad magic")
	}
	return r.err == nil
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count reads a u64 element count and fails unless that many elements
// of at least size encoded bytes each fit in the unread bytes. The
// result is safe to allocate and loop on; it is 0 once the reader has
// failed.
func (r *Reader) Count(size int) int {
	n := r.U64()
	if r.err == nil && n > uint64(r.Len()/size) {
		r.err = fmt.Errorf("wire: count %d of %d-byte elements at offset %d exceeds the %d bytes left",
			n, size, r.off-8, r.Len())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Blob reads a u64 byte length and that many bytes.
func (r *Reader) Blob() []byte { return r.Bytes(r.Count(1)) }

// Encode returns the bytes write produces, in one buffer allocated at
// their declared length n. It fails if write produces any other number
// of bytes, so a length prefix computed apart from its encoder cannot
// drift from it unnoticed.
func Encode(n int, write func(io.Writer) error) ([]byte, error) {
	b := bytes.NewBuffer(make([]byte, 0, n))
	if err := write(b); err != nil {
		return nil, err
	}
	if b.Len() != n {
		return nil, fmt.Errorf("wire: encoder wrote %d bytes, declared %d", b.Len(), n)
	}
	return b.Bytes(), nil
}

// WriteFile replaces the file at path with the bytes write produces.
// They go through a buffered writer into path+".tmp", which is renamed
// over path once write, the flush and the close have succeeded; on any
// failure the temporary file is removed and path keeps its previous
// contents. A new file gets mode 0644 before the umask, as os.WriteFile
// gives it. It is not synced: a crash of the host, not of the process,
// may lose the write.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already failed; a second close error adds nothing
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
