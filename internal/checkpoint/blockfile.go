package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
)

// Block-mapped diff container ("GCKD"): the stored form of a diff
// whose data section lives in the shared content-addressed block
// store instead of being embedded in the record. The container keeps the
// canonical diff prefix (header, region metadata, bitmap) verbatim and
// replaces the data section with a list of block references, so a
// reader reassembles the EXACT canonical encoding — wire format,
// Record, checksums and clients are all unchanged; only the lineage
// directory's bytes are.
//
//	u32  magic "GCKD"
//	u8   version (1)
//	u32  prefix length
//	u32  block count
//	u64  data length (sum of the block lengths)
//	prefix bytes (canonical diff encoding up to the data section)
//	refs: {id [16]byte, len u32} x count
//
// The container is the payload of a segment record exactly like a
// self-contained diff encoding, so the record checksums and the
// scrub and repair machinery treat both identically; the block
// payloads themselves are verified by the block store on every read
// (footer CRC plus a full digest recomputation).
const (
	blockDiffMagic   = 0x44_4b_43_47 // "GCKD" little-endian
	blockDiffVersion = 1
	blockDiffHdrSize = 4 + 1 + 4 + 4 + 8
	blockRefSize     = blockstore.IDSize + 4

	// maxBlockRefs bounds a declared reference count before any
	// allocation; a diff's data section is capped at maxDataLen (4 TiB)
	// and blocks are at least one byte.
	maxBlockRefs = 1 << 32
)

// IsBlockMapped reports whether encoded (a stored record's payload) is
// a block-mapped container rather than a self-contained diff encoding.
func IsBlockMapped(encoded []byte) bool {
	return len(encoded) >= 4 && binary.LittleEndian.Uint32(encoded) == blockDiffMagic
}

// appendBlockHeader appends the header of d's container to buf: the
// canonical prefix of d and nrefs block references follow it.
func appendBlockHeader(buf []byte, d *Diff, nrefs int) ([]byte, error) {
	prefixLen := d.PrefixBytes()
	if prefixLen > math.MaxUint32 || uint64(nrefs) > math.MaxUint32 {
		return buf, errors.New("checkpoint: block container metadata exceeds format limits")
	}
	buf = binary.LittleEndian.AppendUint32(buf, blockDiffMagic)
	buf = append(buf, blockDiffVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(prefixLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nrefs))
	return binary.LittleEndian.AppendUint64(buf, uint64(len(d.Data))), nil
}

// appendRefBytes appends the encoded reference list refs to buf.
func appendRefBytes(buf []byte, refs []blockstore.Ref) []byte {
	for _, r := range refs {
		buf = append(buf, r.ID[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, r.Len)
	}
	return buf
}

// parseBlockDiff parses a container image in place: prefix is the
// canonical diff prefix and refs the reference list, still encoded
// (appendRefs decodes it). Validation is defensive in the repository's usual
// style: counts are checked against the actual byte length, and the
// declared data length must equal the sum of the reference lengths, so a
// corrupted container fails here rather than reassembling a wrong-sized
// diff. Nothing is allocated.
func parseBlockDiff(b []byte) (prefix, refs []byte, dataLen uint64, err error) {
	if len(b) < blockDiffHdrSize {
		return nil, nil, 0, fmt.Errorf("checkpoint: block container truncated at %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != blockDiffMagic {
		return nil, nil, 0, errors.New("checkpoint: bad block container magic")
	}
	if b[4] != blockDiffVersion {
		return nil, nil, 0, fmt.Errorf("checkpoint: unsupported block container version %d", b[4])
	}
	prefixLen := binary.LittleEndian.Uint32(b[5:])
	count := binary.LittleEndian.Uint32(b[9:])
	dataLen = binary.LittleEndian.Uint64(b[13:])
	rest := b[blockDiffHdrSize:]
	if uint64(prefixLen) > uint64(len(rest)) {
		return nil, nil, 0, fmt.Errorf("checkpoint: block container declares %d prefix bytes, carries %d",
			prefixLen, len(rest))
	}
	prefix, refs = rest[:prefixLen], rest[prefixLen:]
	if uint64(count) >= maxBlockRefs || uint64(count)*blockRefSize != uint64(len(refs)) {
		return nil, nil, 0, fmt.Errorf("checkpoint: block container declares %d refs, carries %d ref bytes",
			count, len(refs))
	}
	var sum uint64
	for rec := refs; len(rec) > 0; rec = rec[blockRefSize:] {
		sum += uint64(binary.LittleEndian.Uint32(rec[blockstore.IDSize:]))
	}
	if sum != dataLen {
		return nil, nil, 0, fmt.Errorf("checkpoint: block container refs sum to %d bytes, header says %d",
			sum, dataLen)
	}
	return prefix, refs, dataLen, nil
}

// appendRefs decodes a container's encoded reference list onto dst.
func appendRefs(dst []blockstore.Ref, enc []byte) []blockstore.Ref {
	for ; len(enc) > 0; enc = enc[blockRefSize:] {
		dst = append(dst, blockstore.Ref{ID: blockstore.ID(enc[:blockstore.IDSize]), Len: binary.LittleEndian.Uint32(enc[blockstore.IDSize:])})
	}
	return dst
}
