package checkpoint

import (
	"io"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// Segment records. A lineage's segment is a log in the repository's
// one record framing (internal/recframe: fixed header with a header
// CRC and a payload CRC, frames marked by the more flag, a verifying
// scan that resynchronizes after damage). The lineage's use of it:
//
//	magic "GCKR"
//	kind  1 diff, 2 tombstone
//	A     checkpoint id
//	B     end: one past the highest checkpoint id the segment has held
//	      once this record's frame is committed
//	payload: a diff's container bytes — the canonical diff encoding,
//	      or the block-mapped "GCKD" container — empty for a tombstone
//
// end lets the records AFTER a damaged region testify which ids
// existed before it, so a rotten record whose own header is unreadable
// still becomes a typed hole instead of silently shortening the
// lineage.
const (
	recHdrSize = recframe.HdrSize

	recDiff      = 1
	recTombstone = 2
)

// segFormat is the lineage's framing: its magic, and the field rules
// only a lineage knows — the id lies below end, a diff has a payload,
// a tombstone has none.
var segFormat = recframe.Format{
	Magic: [4]byte{'G', 'C', 'K', 'R'},
	Accept: func(h recframe.Header) bool {
		return h.A < h.B && (h.Kind == recDiff && h.Len > 0 || h.Kind == recTombstone && h.Len == 0)
	},
}

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

func segRecordOf(h recframe.Header) segRecord {
	return segRecord{off: h.Off, kind: h.Kind, more: h.More, id: h.A, end: h.B, len: h.Len, crc: h.CRC}
}

// next returns the offset just past the record.
func (r segRecord) next() int64 { return r.off + recHdrSize + int64(r.len) }

// putRecHeader writes the header of a record whose payload has length
// n and checksum crc into b[:recHdrSize].
func putRecHeader(b []byte, kind byte, more bool, id, end, n, crc uint32) {
	segFormat.Put(b, kind, more, id, end, n, crc)
}

// parseRecHeader decodes and verifies a record header at the start of
// b. ok is false for anything a writer could not have produced.
func parseRecHeader(b []byte) (segRecord, bool) {
	h, ok := segFormat.Parse(b)
	return segRecordOf(h), ok
}

// scanSegment returns every record of a segment image that verifies,
// cut at the committed offset; see recframe.Format.Scan for how it
// tells rot from a torn append.
func scanSegment(r io.ReaderAt, size int64) ([]segRecord, int64, error) {
	hs, committed, err := segFormat.Scan(r, size, false)
	if err != nil {
		return nil, 0, err
	}
	var recs []segRecord
	for _, h := range hs {
		recs = append(recs, segRecordOf(h))
	}
	return recs, committed, nil
}
