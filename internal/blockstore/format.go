package blockstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// On-disk formats of the two planes, both little-endian and decoded
// defensively (bounded counts, exact lengths, checksums before use)
// like every other untrusted surface in the repository.
//
// # Pack log (pack-NNNNNN.log)
//
// A pack is a log in the repository's one record framing
// (internal/recframe) under the magic "GBPR"; the header's two user
// fields are zero. Two kinds of record are written, both an ID followed
// by the block's bytes:
//
//	block    ID + bytes  the block's location
//	moved    ID + bytes  GC's copy of a live block: a new location
//
// Kinds 2 and 3 (a run of IDs each) are the ref and release records of
// earlier builds, which counted references in the log. The framing
// still recognises them, so a pack holding one is not mistaken for
// damage and cut; an open refuses it with ErrOldLayout.
//
// # Index snapshot (blockstore.index)
//
//	u32  magic "GBIX"
//	u8   version (3)
//	u64  generation
//	u32  pack, u64 offset: the log position the snapshot folds up to
//	u32  entry count
//	entries: {id [16]byte, pack u32, off u64, len u32, crc u32} x count
//	u32  footer magic "GBIF"
//	u32  CRC32C of every preceding byte
//
// The snapshot is the commit record of a GC transaction: it lists every
// live block with its location, and its atomic rename is the single
// commit point (mirroring the lineage manifest). An open replays only
// the log past the recorded position. A version 2 snapshot, written by
// the builds that counted references, is refused with ErrOldLayout.
const (
	indexMagic       = 0x58_49_42_47 // "GBIX"
	indexFooterMagic = 0x46_49_42_47 // "GBIF"
	formatVersion    = 3
	countedVersion   = 2 // of the builds that counted references

	indexHdrSize    = 4 + 1 + 8 + 4 + 8 + 4
	indexEntrySize  = idSize + 4 + 8 + 4 + 4
	indexFooterSize = 4 + 4

	// maxIndexEntries bounds a declared entry count before any
	// allocation; with 4 KiB blocks this is already a 4 TiB store.
	maxIndexEntries = 1 << 30

	recBlock   = 1
	recRef     = 2 // written by earlier builds only; refused
	recRelease = 3 // written by earlier builds only; refused
	recMoved   = 4

	// blockRecOverhead is what a block record costs beyond the payload.
	blockRecOverhead = recframe.HdrSize + idSize
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// packFormat is the pack log's framing: its magic and the shapes a
// pack writer produces, now or in an earlier build.
var packFormat = recframe.Format{
	Magic: [4]byte{'G', 'B', 'P', 'R'},
	Accept: func(h recframe.Header) bool {
		switch {
		case h.A != 0 || h.B != 0:
		case h.Kind == recBlock || h.Kind == recMoved:
			return h.Len >= idSize
		case h.Kind == recRef || h.Kind == recRelease:
			return h.Len > 0 && h.Len%idSize == 0
		}
		return false
	},
}

// blockCRC is the payload checksum of a block or moved record: over
// the ID, then the block's bytes. It doubles as the index's second,
// structurally independent check of the block.
func blockCRC(id ID, p []byte) uint32 {
	return crc32.Update(crc32.Checksum(id[:], castagnoli), castagnoli, p)
}

// entry is the in-memory state of one block: where its record sits
// (the header's offset in pack number pack), the block's length and the
// record's payload checksum.
type entry struct {
	off  int64
	pack uint32
	len  uint32
	crc  uint32
}

// logPos is a position in the pack log.
type logPos struct {
	pack uint32
	off  int64
}

// encodeIndex serializes a snapshot. Entries are written in ascending
// ID order so the byte stream is deterministic for a given state.
func encodeIndex(gen uint64, mark logPos, ids []ID, entries map[ID]entry) ([]byte, error) {
	if len(ids) > maxIndexEntries {
		return nil, fmt.Errorf("blockstore: %d entries exceed the index format limit", len(ids))
	}
	buf := make([]byte, 0, indexHdrSize+indexEntrySize*len(ids)+indexFooterSize)
	buf = binary.LittleEndian.AppendUint32(buf, indexMagic)
	buf = append(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, mark.pack)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mark.off))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		e, ok := entries[id]
		if !ok {
			return nil, fmt.Errorf("blockstore: encoding unknown block %s", id)
		}
		buf = append(buf, id[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, e.pack)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.off))
		buf = binary.LittleEndian.AppendUint32(buf, e.len)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	}
	buf = binary.LittleEndian.AppendUint32(buf, indexFooterMagic)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf, nil
}

// DecodeIndex parses an index snapshot. The declared entry count is
// bounded by the actual byte length before any allocation and the
// whole-file CRC must verify; any mismatch is ErrCorrupt. A snapshot of
// the counting builds is ErrOldLayout.
func DecodeIndex(b []byte) (gen uint64, mark logPos, entries map[ID]entry, err error) {
	fail := func(format string, args ...any) (uint64, logPos, map[ID]entry, error) {
		return 0, logPos{}, nil, fmt.Errorf("%w: index "+format, append([]any{ErrCorrupt}, args...)...)
	}
	if len(b) < indexHdrSize+indexFooterSize {
		return fail("truncated at %d bytes", len(b))
	}
	body, foot := b[:len(b)-indexFooterSize], b[len(b)-indexFooterSize:]
	if binary.LittleEndian.Uint32(foot) != indexFooterMagic {
		return fail("footer magic missing")
	}
	want := binary.LittleEndian.Uint32(foot[4:])
	if got := crc32.Checksum(b[:len(b)-4], castagnoli); got != want {
		return fail("footer records %08x, bytes hash to %08x", want, got)
	}
	if binary.LittleEndian.Uint32(body) != indexMagic {
		return fail("magic is wrong")
	}
	switch body[4] {
	case formatVersion:
	case countedVersion:
		return 0, logPos{}, nil, fmt.Errorf("%w: index version %d, written by a build that counted references", ErrOldLayout, countedVersion)
	default:
		return 0, logPos{}, nil, fmt.Errorf("blockstore: unsupported index version %d", body[4])
	}
	gen = binary.LittleEndian.Uint64(body[5:])
	mark = logPos{pack: binary.LittleEndian.Uint32(body[13:]), off: int64(binary.LittleEndian.Uint64(body[17:]))}
	count := binary.LittleEndian.Uint32(body[25:])
	rest := body[indexHdrSize:]
	if uint64(count) > maxIndexEntries || uint64(count)*indexEntrySize != uint64(len(rest)) || mark.off < 0 {
		return fail("declares %d entries up to offset %d but carries %d entry bytes", count, mark.off, len(rest))
	}
	entries = make(map[ID]entry, count)
	var prev ID
	for i := 0; i < int(count); i++ {
		rec := rest[i*indexEntrySize:]
		id := ID(rec[:idSize])
		// Snapshots are canonical: strictly ascending ID order. This both
		// rejects duplicates and makes decode(encode(x)) byte-identical.
		if i > 0 && bytes.Compare(prev[:], id[:]) >= 0 {
			return fail("entry %d (%s) out of order", i, id)
		}
		prev = id
		e := entry{
			pack: binary.LittleEndian.Uint32(rec[idSize:]),
			off:  int64(binary.LittleEndian.Uint64(rec[idSize+4:])),
			len:  binary.LittleEndian.Uint32(rec[idSize+12:]),
			crc:  binary.LittleEndian.Uint32(rec[idSize+16:]),
		}
		if e.off < 0 {
			return fail("entry %d (%s) at a negative offset", i, id)
		}
		entries[id] = e
	}
	return gen, mark, entries, nil
}
