package recframe

import (
	"bytes"
	"hash/crc32"
	"slices"
	"testing"
)

// testFormat accepts what its one test writer produces: kind 1, A below B.
var testFormat = Format{
	Magic:  [4]byte{'T', 'E', 'S', 'T'},
	Accept: func(h Header) bool { return h.Kind == 1 && h.A < h.B },
}

// record returns one framed record holding payload.
func record(more bool, a, b uint32, payload []byte) []byte {
	rec := make([]byte, HdrSize, HdrSize+len(payload))
	testFormat.Put(rec, 1, more, a, b, uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

func TestPutParseRoundTrip(t *testing.T) {
	for _, want := range []Header{
		{Kind: 1, A: 0, B: 1},
		{Kind: 1, More: true, A: 7, B: 9, Len: 13, CRC: 0xdeadbeef},
		{Kind: 1, A: 1<<32 - 2, B: 1<<32 - 1, Len: 1<<32 - 1, CRC: 1<<32 - 1},
	} {
		b := make([]byte, HdrSize)
		testFormat.Put(b, want.Kind, want.More, want.A, want.B, want.Len, want.CRC)
		got, ok := testFormat.Parse(b)
		if !ok || got != want {
			t.Errorf("Put then Parse: got %+v (ok=%v), want %+v", got, ok, want)
		}
		if _, ok := testFormat.Parse(b[:HdrSize-1]); ok {
			t.Errorf("%+v: parsed from a header one byte short", want)
		}
		other := Format{Magic: [4]byte{'N', 'O', 'P', 'E'}, Accept: testFormat.Accept}
		if _, ok := other.Parse(b); ok {
			t.Errorf("%+v: parsed under another format's magic", want)
		}
	}
	// What the format's Accept refuses is not a record, whatever its CRC says.
	b := make([]byte, HdrSize)
	testFormat.Put(b, 1, false, 4, 4, 0, 0)
	if _, ok := testFormat.Parse(b); ok {
		t.Error("parsed a header the format does not accept")
	}
}

// TestParseRejectsEveryFlippedByte: the header CRC covers all 24 bytes
// before it, so no single damaged header byte — the CRC's own included —
// leaves a header that parses.
func TestParseRejectsEveryFlippedByte(t *testing.T) {
	b := make([]byte, HdrSize)
	testFormat.Put(b, 1, true, 3, 4, 100, 0x01020304)
	for i := range b {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			b[i] ^= mask
			if h, ok := testFormat.Parse(b); ok {
				t.Errorf("byte %d flipped by %02x still parses: %+v", i, mask, h)
			}
			b[i] ^= mask
		}
	}
	if _, ok := testFormat.Parse(b); !ok {
		t.Fatal("the restored header no longer parses")
	}
}

func TestScan(t *testing.T) {
	// Three frames: one record, two records, one record.
	r0 := record(false, 0, 1, []byte("zero"))
	r1 := record(true, 1, 3, []byte("one, first of a frame of two"))
	r2 := record(false, 2, 3, []byte("two"))
	r3 := record(false, 3, 4, []byte("three"))
	img := bytes.Join([][]byte{r0, r1, r2, r3}, nil)
	off := []int64{0, int64(len(r0)), int64(len(r0) + len(r1)), int64(len(r0) + len(r1) + len(r2))}
	size := int64(len(img))
	damaged := func(at int64) []byte {
		b := bytes.Clone(img)
		b[at] ^= 0xFF
		return b
	}

	cases := []struct {
		name      string
		img       []byte
		sealed    bool
		wantOffs  []int64
		committed int64
	}{
		{"intact", img, false, off, size},
		{"empty", nil, false, nil, 0},
		// A torn append: the cut reaches the end, so the last frame never
		// happened — wherever in the record the cut falls.
		{"torn tail, cut in the payload", img[:size-2], false, off[:3], off[3]},
		{"torn tail, cut in the header", img[:off[3]+5], false, off[:3], off[3]},
		// A frame whose committing record never made it goes as a whole,
		// the record that did arrive included.
		{"torn tail, frame missing its last record", img[:off[2]], false, off[:1], off[1]},
		{"torn tail, cut inside a frame's last record", img[:off[3]-1], false, off[:1], off[1]},
		// Rot followed by a record that verifies was committed: only the
		// damaged record is lost, and the scan commits through the end.
		{"rot in the first payload", damaged(HdrSize + 1), false, off[1:], size},
		{"rot in a middle header", damaged(off[2] + 9), false, []int64{off[0], off[1], off[3]}, size},
		// Rot in the very last frame cannot be told from a torn write.
		{"rot in the last record", damaged(off[3] + HdrSize), false, off[:3], off[3]},
		// A sealed image has no append in flight: damage reaching its end
		// is rot, every verified record is kept and nothing is cut.
		{"sealed, rot in the last record", damaged(off[3] + HdrSize), true, off[:3], size},
		{"sealed, cut in the last record", img[:size-2], true, off[:3], size - 2},
		{"sealed, frame missing its last record", img[:off[2]], true, off[:2], off[2]},
	}
	for _, tc := range cases {
		recs, committed, err := testFormat.Scan(bytes.NewReader(tc.img), int64(len(tc.img)), tc.sealed)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var offs []int64
		for _, r := range recs {
			offs = append(offs, r.Off)
			if h, ok := testFormat.Parse(tc.img[r.Off:]); !ok || h.Len != r.Len || r.Next() > int64(len(tc.img)) {
				t.Errorf("%s: reported record %+v does not verify where it points", tc.name, r)
			}
		}
		if !slices.Equal(offs, tc.wantOffs) || committed != tc.committed {
			t.Errorf("%s: records at %v committed %d, want %v committed %d", tc.name, offs, committed, tc.wantOffs, tc.committed)
		}
	}
}
