package checkpoint

import "github.com/gpuckpt/gpuckpt/internal/recframe"

// Segment records. A lineage's segment is a log in the repository's
// one record framing (internal/recframe: fixed header with a header
// CRC and a payload CRC, frames marked by the more flag, a verifying
// scan that resynchronizes after damage). The lineage's use of it:
//
//	magic "GCKR"
//	kind  1 diff, 2 tombstone (read only)
//	A     id: the checkpoint the record holds
//	B     end: one past the highest checkpoint id the segment has held
//	      once this record's frame is committed
//	payload: a diff's container bytes — the canonical diff encoding,
//	      or the block-mapped "GCKD" container — empty for a tombstone
//
// end lets the records AFTER a damaged region testify which ids
// existed before it, so a rotten record whose own header is unreadable
// still becomes a typed hole instead of silently shortening the
// lineage. Earlier builds wrote tombstones to take an id out of range;
// this one writes only diff records and reads a tombstone as marking
// its id damaged.
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
