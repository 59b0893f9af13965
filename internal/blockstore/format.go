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
// (internal/recframe) under the magic "GBPR". Two kinds of record hold
// a block, both an ID followed by the block as stored:
//
//	block    ID + stored  the block's location
//	moved    ID + stored  GC's copy of a live block: a new location
//
// A record stores its block in one of three layouts, whichever is
// shortest, raw on a tie:
//
//	raw      the block's bytes; the header's two user fields are zero
//	packed   internal/compress's AppendPacked: one bit width per 256 words
//	delta    internal/compress's AppendDeltaPacked: zigzag deltas of
//	         consecutive words, one bit width per 4; the record's kind
//	         has the recDelta bit set
//
// A packed or delta record's header carries the block's length in A and
// the block's CRC (blockCRC, over the ID and the block's bytes) in B,
// so that the index learns both without reading the payload. The
// record's own CRC covers what it stores, as for every record, and a
// read re-derives the block's ID from its bytes, unpacked first.
//
// Kinds 2 and 3 (a run of IDs each) are the ref and release records of
// earlier builds, which counted references in the log. The framing
// still recognises them, so a pack holding one is not mistaken for
// damage and cut; an open refuses it with ErrOldLayout. One kind 2
// record is this build's own: the version record, whose payload is
// "GBPV", a pack format version and zeros to the length of an ID. It
// commits a frame of its own at the head of the first frame that puts
// a record of a newer layout in a pack: version 2 before the first
// packed record, version 3 before the first delta record. A build
// that predates a layout reads that version record as a ref record, or
// as a version it does not know, and refuses the pack with its
// ErrOldLayout, touching nothing — where it would otherwise have taken
// the records it cannot read for damage and cut them off as a torn
// tail.
//
// # Index snapshot (blockstore.index)
//
//	u32  magic "GBIX"
//	u8   version (4, or 5 once the store holds delta records)
//	u64  generation
//	u32  pack, u64 offset: the log position the snapshot folds up to
//	u32  entry count
//	entries: {id [16]byte, pack u32, off u64, len u32, stored u32, crc u32} x count
//	u32  footer magic "GBIF"
//	u32  CRC32C of every preceding byte
//
// len is the block's length, stored the length of what its record
// stores (less than len unless the record is raw) and crc the block's
// CRC. Which of packed and delta a short record holds, its header
// says: the index needs only its length. The snapshot is the commit
// record of a GC transaction: it lists every live block with its
// location, and its atomic rename is the single commit point
// (mirroring the lineage manifest). An open replays only the log past
// the recorded position. A store that holds or held delta records
// writes version 5, the same entries under a version the builds before
// delta records refuse: they would read a folded delta record as a
// packed one. A version 3 snapshot, whose entries have no stored
// length because every record was raw, is read as one whose stored
// lengths equal their lengths; a version 2 snapshot, written by the
// builds that counted references, or one of an unknown version is
// refused with ErrOldLayout.
const (
	indexMagic       = 0x58_49_42_47 // "GBIX"
	indexFooterMagic = 0x46_49_42_47 // "GBIF"
	formatVersion    = 5             // of a store that holds or held delta records
	packedVersion    = 4             // of any other store, and of the builds before delta records
	rawVersion       = 3             // of the builds that wrote raw records only
	countedVersion   = 2             // of the builds that counted references

	indexHdrSize    = 4 + 1 + 8 + 4 + 8 + 4
	indexEntrySize  = idSize + 4 + 8 + 4 + 4 + 4
	rawEntrySize    = indexEntrySize - 4
	indexFooterSize = 4 + 4

	// maxIndexEntries bounds a declared entry count before any
	// allocation; with 4 KiB blocks this is already a 4 TiB store.
	maxIndexEntries = 1 << 30

	recBlock   = 1
	recRef     = 2 // written by earlier builds only; refused. Also the version record.
	recRelease = 3 // written by earlier builds only; refused
	recMoved   = 4
	// recDelta is set in the kind of a block or moved record that
	// stores the delta-packed layout.
	recDelta = 0x10

	// The pack format versions a version record names: the first that
	// holds packed records, and the first that holds delta records.
	packedPackVersion = 2
	deltaPackVersion  = 3

	// blockRecOverhead is what a block record costs beyond what it
	// stores.
	blockRecOverhead = recframe.HdrSize + idSize
)

// versionRecord is the payload of the version record of pack format
// version v: "GBPV", v, zeros to the length of an ID.
func versionRecord(v byte) [idSize]byte { return [idSize]byte{'G', 'B', 'P', 'V', v} }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// packFormat is the pack log's framing: its magic and the shapes a
// pack writer produces, now or in an earlier build.
var packFormat = recframe.Format{
	Magic: [4]byte{'G', 'B', 'P', 'R'},
	Accept: func(h recframe.Header) bool {
		switch kind := h.Kind &^ recDelta; {
		case kind == recBlock || kind == recMoved:
			// A packed or delta record stores less than the block's length.
			raw := h.A == 0 && h.B == 0 && h.Kind&recDelta == 0
			return h.Len >= idSize && (raw || h.Len-idSize < h.A)
		case h.A != 0 || h.B != 0:
		case h.Kind == recRef || h.Kind == recRelease:
			return h.Len > 0 && h.Len%idSize == 0
		}
		return false
	},
}

// blockCRC is the block's CRC: over the ID, then the block's bytes —
// the payload checksum of a raw record, and the B field of any other. It doubles as the index's second, structurally independent check
// of the block.
func blockCRC(id, p []byte) uint32 {
	return crc32.Update(crc32.Checksum(id, castagnoli), castagnoli, p)
}

// entry is the in-memory state of one block: where its record sits
// (the header's offset in pack number pack), the block's length, the
// length of what the record stores, and the block's CRC. Which layout a
// short record holds, its header says.
type entry struct {
	off    int64
	pack   uint32
	len    uint32
	stored uint32
	crc    uint32
}

// packed reports whether the record stores the block packed or
// delta-packed.
func (e entry) packed() bool { return e.stored != e.len }

// recordEntry returns the entry of the block record h, which sits in
// pack number pack.
func recordEntry(h recframe.Header, pack uint32) entry {
	e := entry{off: h.Off, pack: pack, len: h.Len - idSize, stored: h.Len - idSize, crc: h.CRC}
	if h.A != 0 {
		e.len, e.crc = h.A, h.B
	}
	return e
}

// logPos is a position in the pack log.
type logPos struct {
	pack uint32
	off  int64
}

// encodeIndex serializes a snapshot of the given version, 4 or 5.
// Entries are written in ascending ID order so the byte stream is
// deterministic for a given state.
func encodeIndex(version byte, gen uint64, mark logPos, ids []ID, entries map[ID]entry) ([]byte, error) {
	if len(ids) > maxIndexEntries {
		return nil, fmt.Errorf("blockstore: %d entries exceed the index format limit", len(ids))
	}
	buf := make([]byte, 0, indexHdrSize+indexEntrySize*len(ids)+indexFooterSize)
	buf = binary.LittleEndian.AppendUint32(buf, indexMagic)
	buf = append(buf, version)
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
		buf = binary.LittleEndian.AppendUint32(buf, e.stored)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	}
	buf = binary.LittleEndian.AppendUint32(buf, indexFooterMagic)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf, nil
}

// DecodeIndex parses an index snapshot. The declared entry count is
// bounded by the actual byte length before any allocation and the
// whole-file CRC must verify; any mismatch is ErrCorrupt. A snapshot of
// the raw-only builds (version 3) is read; one of the counting builds,
// or of any version but 3 to 5, is ErrOldLayout.
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
	size := indexEntrySize
	switch body[4] {
	case formatVersion, packedVersion:
	case rawVersion:
		size = rawEntrySize
	case countedVersion:
		return 0, logPos{}, nil, fmt.Errorf("%w: index version %d, written by a build that counted references", ErrOldLayout, countedVersion)
	default:
		return 0, logPos{}, nil, fmt.Errorf("%w: index version %d", ErrOldLayout, body[4])
	}
	gen = binary.LittleEndian.Uint64(body[5:])
	mark = logPos{pack: binary.LittleEndian.Uint32(body[13:]), off: int64(binary.LittleEndian.Uint64(body[17:]))}
	count := binary.LittleEndian.Uint32(body[25:])
	rest := body[indexHdrSize:]
	if uint64(count) > maxIndexEntries || uint64(count)*uint64(size) != uint64(len(rest)) || mark.off < 0 {
		return fail("declares %d entries up to offset %d but carries %d entry bytes", count, mark.off, len(rest))
	}
	entries = make(map[ID]entry, count)
	var prev ID
	for i := 0; i < int(count); i++ {
		rec := rest[i*size:]
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
		}
		e.stored, e.crc = e.len, binary.LittleEndian.Uint32(rec[idSize+16:])
		if size == indexEntrySize {
			e.stored, e.crc = e.crc, binary.LittleEndian.Uint32(rec[idSize+20:])
		}
		if e.off < 0 || e.stored > e.len {
			return fail("entry %d (%s) at offset %d stores %d bytes of %d", i, id, e.off, e.stored, e.len)
		}
		entries[id] = e
	}
	return gen, mark, entries, nil
}
