package serve

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// Serve checkpoint framing. The router blob (RTRCKPT1, see
// internal/router/snapshot.go) captures everything inside the
// simulation; the serve wrapper adds the daemon-side coordinates a
// restore needs before it can replay: the slice index (so the feeder
// resumes the identical arrival stream) and the era of every rolling
// soak window installed so far (so the restore rebuilds the exact
// injector union the original run had when the blob was written).
//
//	SRVCKPT1 | u64 slice | u64 nwindows | nwindows × u64 era |
//	u64 len(router blob) | router blob

const srvSnapMagic = "SRVCKPT1"

// appendCheckpointHeader appends everything that precedes a router blob
// of blobLen bytes.
func appendCheckpointHeader(b []byte, slice int64, eras []uint64, blobLen int) []byte {
	le := binary.LittleEndian
	b = append(b, srvSnapMagic...)
	b = le.AppendUint64(b, uint64(slice))
	b = le.AppendUint64(b, uint64(len(eras)))
	for _, e := range eras {
		b = le.AppendUint64(b, e)
	}
	return le.AppendUint64(b, uint64(blobLen))
}

func decodeCheckpoint(b []byte) (slice int64, eras []uint64, blob []byte, err error) {
	rd := wire.NewReader(b)
	if !rd.Magic(srvSnapMagic) {
		return 0, nil, nil, fmt.Errorf("serve: not a serve checkpoint")
	}
	slice = int64(rd.U64())
	eras = make([]uint64, rd.Count(8))
	for i := range eras {
		eras[i] = rd.U64()
	}
	blob = rd.Blob()
	if err := rd.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("serve: corrupt checkpoint: %w", err)
	}
	if slice < 0 {
		return 0, nil, nil, fmt.Errorf("serve: corrupt checkpoint (slice %d)", slice)
	}
	return slice, eras, blob, nil
}
