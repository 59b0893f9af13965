package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Segment record framing. A lineage's segment is a plain
// concatenation of records — no file header, so an empty file is an
// empty segment. Every record is a fixed header followed by its
// payload, little-endian like the diff format:
//
//	u32  magic "GCKR"
//	u8   kind (1 diff, 2 tombstone)
//	u8   more (1: the next record belongs to the same frame; 0: this
//	     record commits its frame)
//	u16  zero
//	u32  checkpoint id
//	u32  end: one past the highest checkpoint id the segment has held
//	     once this record's frame is committed
//	u32  payload length
//	u32  CRC32C(payload)
//	u32  CRC32C(the 24 header bytes above)
//	payload: a diff's container bytes — the canonical diff encoding,
//	     or the block-mapped "GCKD" container — empty for a tombstone
//
// A frame is the unit of atomicity: the records one append writes
// with one fsync, all but the last flagged more. The two checksums
// split the failure modes. The header CRC lets a scan find record
// boundaries again after damage (it resynchronizes on the next header
// that verifies), the payload CRC pins the bytes, and end lets the
// records AFTER a damaged region testify which ids existed before it,
// so a rotten record whose own header is unreadable still becomes a
// typed hole instead of silently shortening the lineage.
const (
	recMagic   = 0x52_4b_43_47 // "GCKR" little-endian
	recHdrSize = 28

	recDiff      = 1
	recTombstone = 2
)

// recMagicBytes is recMagic as it appears on disk, the needle a scan
// resynchronizes on.
var recMagicBytes = [4]byte{'G', 'C', 'K', 'R'}

// segRecord is one verified record of a segment scan.
type segRecord struct {
	off  int64 // of the header
	kind byte
	more bool
	id   uint32
	end  uint32
	len  uint32 // of the payload
	crc  uint32 // of the payload
}

// next returns the offset just past the record.
func (r segRecord) next() int64 { return r.off + recHdrSize + int64(r.len) }

// putRecHeader writes the header of a record whose payload has length
// n and checksum crc into b[:recHdrSize].
func putRecHeader(b []byte, kind byte, more bool, id, end, n, crc uint32) {
	binary.LittleEndian.PutUint32(b, recMagic)
	b[4], b[5], b[6], b[7] = kind, 0, 0, 0
	if more {
		b[5] = 1
	}
	binary.LittleEndian.PutUint32(b[8:], id)
	binary.LittleEndian.PutUint32(b[12:], end)
	binary.LittleEndian.PutUint32(b[16:], n)
	binary.LittleEndian.PutUint32(b[20:], crc)
	binary.LittleEndian.PutUint32(b[24:], crc32.Checksum(b[:24], castagnoli))
}

// parseRecHeader decodes and verifies a record header at the start of
// b. ok is false for anything a writer could not have produced: short
// input, wrong magic, a failed header CRC, or fields that contradict
// each other.
func parseRecHeader(b []byte) (r segRecord, ok bool) {
	if len(b) < recHdrSize || binary.LittleEndian.Uint32(b) != recMagic ||
		binary.LittleEndian.Uint32(b[24:]) != crc32.Checksum(b[:24], castagnoli) {
		return r, false
	}
	r = segRecord{
		kind: b[4],
		more: b[5] == 1,
		id:   binary.LittleEndian.Uint32(b[8:]),
		end:  binary.LittleEndian.Uint32(b[12:]),
		len:  binary.LittleEndian.Uint32(b[16:]),
		crc:  binary.LittleEndian.Uint32(b[20:]),
	}
	switch {
	case b[5] > 1 || b[6] != 0 || b[7] != 0 || r.id >= r.end:
		return r, false
	case r.kind == recDiff && r.len > 0, r.kind == recTombstone && r.len == 0:
		return r, true
	}
	return r, false
}

// scanSegment walks a segment image of size bytes and returns every
// record that verifies — header CRC, payload inside the image,
// payload CRC — in file order, cut at committed: the offset up to
// which the segment is known to have been durably written.
//
// The walk classifies damage by what follows it. A region that fails
// verification but is followed by a record that verifies is rot in
// data that was already committed: the scan resynchronizes on the
// later record and drops nothing else. A region that reaches the end
// of the image — or a trailing frame whose committing record never
// made it — is an append that died mid-write: everything past
// committed belongs to a batch nobody was told about, and the caller
// truncates it. Rot that happens to sit in the very last frame is
// indistinguishable from such a torn write and is truncated with it.
func scanSegment(r io.ReaderAt, size int64) (recs []segRecord, committed int64, err error) {
	var (
		hdr   [recHdrSize]byte
		chunk = make([]byte, min(size, 64<<10)+1) // payload verification, piece by piece
		crcer = crc32.New(castagnoli)
	)
	// valid reports whether a whole record verifies at offset at.
	valid := func(at int64) (segRecord, bool, error) {
		n, err := r.ReadAt(hdr[:], at)
		if err != nil && err != io.EOF {
			return segRecord{}, false, err
		}
		rec, ok := parseRecHeader(hdr[:n])
		rec.off = at
		if !ok || rec.next() > size {
			return rec, false, nil
		}
		crcer.Reset()
		if _, err := io.CopyBuffer(crcer, io.NewSectionReader(r, at+recHdrSize, int64(rec.len)), chunk); err != nil {
			return rec, false, err
		}
		return rec, crcer.Sum32() == rec.crc, nil
	}
	// resync returns the offset of the first record at or after from
	// that verifies, -1 when there is none.
	var win []byte
	resync := func(from int64) (int64, error) {
		if win == nil {
			win = make([]byte, min(size, 64<<10))
		}
		for from+recHdrSize <= size {
			n, err := r.ReadAt(win, from)
			if err != nil && err != io.EOF {
				return -1, err
			}
			if n < recHdrSize {
				break
			}
			for i := 0; ; i++ {
				j := bytes.Index(win[i:n], recMagicBytes[:])
				if j < 0 {
					break
				}
				i += j
				if _, ok, err := valid(from + int64(i)); err != nil || ok {
					return from + int64(i), err
				}
			}
			from += int64(n - len(recMagicBytes) + 1) // a magic may straddle the window edge
		}
		return -1, nil
	}

	nRecs := 0 // len(recs) as of committed
	for off := int64(0); off < size; {
		rec, ok, err := valid(off)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			recs = append(recs, rec)
			off = rec.next()
			if !rec.more {
				committed, nRecs = off, len(recs)
			}
			continue
		}
		next, err := resync(off + 1)
		if err != nil {
			return nil, 0, err
		}
		if next < 0 {
			break // the damage reaches the end of the image
		}
		// Something valid was written after the damage, so what came
		// before it was committed.
		off, committed, nRecs = next, next, len(recs)
	}
	return recs[:nRecs], committed, nil
}
