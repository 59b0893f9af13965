package checkpoint

import (
	"bytes"
	"testing"
)

// TestRecordHeaderTruncated truncates a diff record and a tombstone at
// every byte boundary: a cut header never parses, and a scan of the
// cut image reports nothing and commits nothing — never a panic or a
// partial record.
func TestRecordHeaderTruncated(t *testing.T) {
	payload := []byte("payload bytes")
	diff := make([]byte, recHdrSize)
	segFormat.Put(diff, recDiff, false, 3, 4, uint32(len(payload)), DiffChecksum(payload))
	diff = append(diff, payload...)
	tomb := make([]byte, recHdrSize)
	segFormat.Put(tomb, recTombstone, false, 3, 4, 0, 0)

	for name, img := range map[string][]byte{"diff": diff, "tombstone": tomb} {
		for i := 0; i < len(img); i++ {
			if i < recHdrSize {
				if r, ok := segFormat.Parse(img[:i]); ok {
					t.Errorf("%s header truncated to %d/%d bytes parsed: %+v", name, i, recHdrSize, r)
				}
			}
			recs, committed, err := segFormat.Scan(bytes.NewReader(img[:i]), int64(i), false)
			if err != nil || len(recs) != 0 || committed != 0 {
				t.Errorf("%s truncated to %d/%d bytes scanned to %+v, committed %d, err %v", name, i, len(img), recs, committed, err)
			}
		}
		recs, committed, err := segFormat.Scan(bytes.NewReader(img), int64(len(img)), false)
		if err != nil || len(recs) != 1 || committed != int64(len(img)) {
			t.Errorf("valid %s rejected: %+v, committed %d, err %v", name, recs, committed, err)
		}
	}
}

// TestRecordHeaderRejectsInconsistentFields: a header whose checksum
// is right but whose fields no writer produces is not a record.
func TestRecordHeaderRejectsInconsistentFields(t *testing.T) {
	cases := []struct {
		name                string
		kind                byte
		id, end, n          uint32
		reserved, moreValue byte
	}{
		{name: "unknown kind", kind: 9, id: 0, end: 1, n: 1},
		{name: "id not below end", kind: recDiff, id: 4, end: 4, n: 1},
		{name: "empty diff", kind: recDiff, id: 0, end: 1, n: 0},
		{name: "tombstone with payload", kind: recTombstone, id: 0, end: 1, n: 5},
		{name: "reserved byte set", kind: recDiff, id: 0, end: 1, n: 1, reserved: 1},
		{name: "more flag out of range", kind: recDiff, id: 0, end: 1, n: 1, moreValue: 2},
	}
	for _, tc := range cases {
		b := make([]byte, recHdrSize)
		segFormat.Put(b, tc.kind, false, tc.id, tc.end, tc.n, 0)
		b[5], b[6] = tc.moreValue, tc.reserved
		putU32(b[24:], DiffChecksum(b[:24]))
		if r, ok := segFormat.Parse(b); ok {
			t.Errorf("%s: parsed %+v", tc.name, r)
		}
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
