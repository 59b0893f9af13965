package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// encodeSeed returns the encoding of d for use as a fuzz seed.
func encodeSeed(f *testing.F, d *Diff) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// diffSeeds adds the fuzz seeds of the diff decoders: every method's
// encoding, and one whose header spells the raw data length of an
// uncompressed data section wrong — a second spelling of the same diff,
// which decode refuses.
func diffSeeds(f *testing.F) {
	for _, d := range sampleDiffs() {
		f.Add(encodeSeed(f, d))
	}
	odd := encodeSeed(f, sampleDiffs()[3])
	binary.LittleEndian.PutUint64(odd[43:], 5)
	f.Add(odd)
}

// reencodes reports whether d encodes to exactly b: a diff has one
// encoding, so the stores can keep the bytes that arrived.
func reencodes(t *testing.T, d *Diff, b []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatalf("re-encode of decoded diff failed: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), b) {
		t.Fatalf("decoded diff %+v re-encodes to %x, not the %x it came from", d, buf.Bytes(), b)
	}
}

// FuzzDiffDecode feeds arbitrary bytes to the diff decoder: a diff that
// decodes re-encodes to exactly the bytes the decoder consumed.
func FuzzDiffDecode(f *testing.F) {
	diffSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		d, err := Decode(r)
		if err != nil {
			return
		}
		reencodes(t, d, data[:len(data)-r.Len()])
	})
}

// FuzzDecodeBytes is a differential test of the by-reference parser
// against the stream parser, over the same seeds: on the bytes the
// stream parser consumed both succeed with equal diffs that re-encode
// to those bytes, and where it fails the by-reference parser fails too.
// The push intake's streaming parser is held to both (streamDiffers).
func FuzzDecodeBytes(f *testing.F) {
	diffSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		streamDiffers(t, data)
		r := bytes.NewReader(data)
		want, err := Decode(r)
		if err != nil {
			if got, err := DecodeBytes(data); err == nil {
				t.Fatalf("Decode failed, DecodeBytes parsed %+v", got)
			}
			return
		}
		consumed := data[:len(data)-r.Len()]
		got, err := DecodeBytes(consumed)
		if err != nil {
			t.Fatalf("Decode parsed %+v, DecodeBytes failed: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parsers disagree:\n %+v\n %+v", got, want)
		}
		reencodes(t, got, consumed)
		if r.Len() > 0 {
			if _, err := DecodeBytes(data); err == nil {
				t.Fatalf("DecodeBytes accepted %d trailing bytes", r.Len())
			}
		}
	})
}

// streamDiffers is FuzzDecodeBytes's differential half: data, framed
// as a push payload whose CRC prefix is right or — for every third
// length — wrong, read by ReadStream in reads of pseudo-random size
// through a small bufio.Reader, must be accepted exactly when
// wire.DecodePush and DecodeBytes accept it, parse to the same diff,
// hand its data section over in whole cuts, consume exactly the
// payload and give the same CRC verdict.
func streamDiffers(t *testing.T, data []byte) {
	payload := wire.EncodePush(data)
	if len(data)%3 == 0 {
		payload[0] ^= 0x5A
	}
	_, encoded, pushErr := wire.DecodePush(payload)
	want, decErr := DecodeBytes(data)
	seed := int64(wire.Checksum(data))
	rng := rand.New(rand.NewSource(seed))
	br := bufio.NewReaderSize(&chunkyReader{r: bytes.NewReader(payload), rng: rng}, 64)
	cut := 1 + rng.Intn(br.Size())

	declared := binary.BigEndian.Uint32(payload)
	br.Discard(wire.PushChecksumSize)
	var got Diff
	var section []byte
	pieces := 0
	_, crc, bad, err := ReadStream(br, int64(len(data)), &got, nil, cut, func(p []byte) error {
		if pieces > 0 && len(section)%cut != 0 {
			t.Fatalf("a piece after %d data bytes does not start at a cut of %d", len(section), cut)
		}
		pieces++
		section = append(section, p...)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadStream failed reading a payload that was all there: %v", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("ReadStream left payload bytes unread (%v)", err)
	}
	crcErr := wire.CheckPush(declared, crc)
	if (crcErr == nil) != (pushErr == nil) {
		t.Fatalf("CRC verdicts differ: streamed %v, DecodePush %v", crcErr, pushErr)
	}
	if pushErr == nil && !bytes.Equal(encoded, data) {
		t.Fatal("DecodePush returned other bytes than were pushed")
	}
	if (bad == nil) != (decErr == nil) {
		t.Fatalf("verdicts differ: ReadStream %v, DecodeBytes %v", bad, decErr)
	}
	if bad != nil {
		return
	}
	got.Data = section
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("ReadStream and DecodeBytes disagree:\n %+v\n %+v", &got, want)
	}
}

// chunkyReader returns reads of pseudo-random size, 1 to 23 bytes.
type chunkyReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (c *chunkyReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), 1+c.rng.Intn(23))])
}

// FuzzManifestDecode feeds arbitrary bytes to the lineage-manifest
// decoder. A manifest that decodes must re-encode to exactly the bytes
// it was decoded from (the format has one spelling per value) — the
// manifest is the commit record of the compaction transaction, so a
// corrupted file must never decode into an inconsistent baseline.
func FuzzManifestDecode(f *testing.F) {
	seeds := []Manifest{
		{},
		{Base: 0, Generation: 1},
		{Base: 8, Generation: 3, segment: 2},
		{Base: 1, Generation: 1 << 40},
	}
	for _, m := range seeds {
		f.Add(m.Encode())
	}
	// Invalid-by-construction seeds steer the fuzzer at the validation
	// paths: wrong magic, truncated header.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x4d, 0x4c, 0x43, 0x47, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if b := m.Encode(); !bytes.Equal(b, data) {
			t.Fatalf("decoded manifest %+v re-encodes to %x, not the %x it came from", m, b, data)
		}
	})
}

// FuzzSegmentScan attacks the open-time segment scan with arbitrary
// segment images and with arbitrary single-byte corruptions of a valid
// record. The invariants: the scan never panics and never reports a
// record whose header or payload checksum fails or whose extent leaves
// the committed image; a store opened on the image serves every diff
// it indexed as live and fails the rest typed; and a corrupted record
// is either gone from the scan
// (detected, or unreadable) or — never — reported with altered bytes:
// silently verified corruption is the one forbidden outcome.
func FuzzSegmentScan(f *testing.F) {
	for _, img := range segmentSeeds(f) {
		f.Add(img, uint16(0), byte(0))
		f.Add(img, uint16(len(img)/2), byte(0x40))
	}
	f.Add([]byte{}, uint16(3), byte(0xFF))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint16(70), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		checkScan(t, data)

		// The image as a lineage's segment: every id the open indexed as
		// live reads back verified, every other one fails typed.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if fs, err := NewFileStoreWith(dir, nil); err == nil {
			damaged := map[int]bool{}
			for _, ck := range fs.DamagedIDs() {
				damaged[ck] = true
			}
			n := fs.Len()
			for ck := 0; ck < n; ck++ {
				if _, err := fs.DiffBytes(ck); (err != nil) != damaged[ck] || err != nil && !IsCorrupt(err) {
					t.Fatalf("diff %d (reported damaged: %v) read back as: %v", ck, damaged[ck], err)
				}
			}
			fs.Close()
		}

		// One record holding data, then one corrupted byte anywhere in
		// it: the record must not survive as a whole.
		if len(data) == 0 {
			return
		}
		img := make([]byte, recHdrSize, recHdrSize+len(data))
		segFormat.Put(img, recDiff, false, 7, 8, uint32(len(data)), DiffChecksum(data))
		img = append(img, data...)
		if recs := checkScan(t, img); len(recs) == 0 || recs[0].Off != 0 || recs[0].Len != uint32(len(data)) {
			t.Fatalf("valid record not scanned: %+v", recs)
		}
		if mask == 0 {
			mask = 1
		}
		img[int(pos)%len(img)] ^= mask
		for _, r := range checkScan(t, img) {
			if r.Off == 0 {
				t.Fatalf("flip of byte %d (mask %02x) verified with altered content", int(pos)%len(img), mask)
			}
		}
	})
}

// checkScan scans img and fails the test if any reported record does
// not verify against the bytes it points at.
func checkScan(t *testing.T, img []byte) []recframe.Header {
	t.Helper()
	recs, committed, err := segFormat.Scan(bytes.NewReader(img), int64(len(img)), false)
	if err != nil {
		t.Fatalf("scan of an in-memory image failed: %v", err)
	}
	if committed < 0 || committed > int64(len(img)) {
		t.Fatalf("committed offset %d outside image of %d bytes", committed, len(img))
	}
	prev := int64(0)
	for _, r := range recs {
		if r.Off < prev || r.Next() > committed {
			t.Fatalf("record %+v overlaps its predecessor (ends %d) or the committed offset %d", r, prev, committed)
		}
		h, ok := segFormat.Parse(img[r.Off:])
		h.Off = r.Off
		if !ok || h != r {
			t.Fatalf("record %+v reported over header %+v (ok=%v)", r, h, ok)
		}
		if DiffChecksum(img[r.Off+recHdrSize:r.Next()]) != r.CRC {
			t.Fatalf("record %+v reported with a failing payload checksum", r)
		}
		prev = r.Next()
	}
	return recs
}

// segmentSeeds returns segment images for the fuzz corpus: appended
// frames, a tombstone (which earlier builds wrote) and its replacement,
// and a torn tail.
func segmentSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	diffs := sampleDiffs()
	for i, d := range diffs {
		d.CkptID = uint32(i)
	}
	var fs FileStore
	frame := func(end uint32, ds ...*Diff) []byte {
		var buf bytes.Buffer
		fs.mu.Lock()
		_, err := fs.writeRecordsLocked(&buf, ds, nil, nil, end, true)
		fs.mu.Unlock()
		if err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	tomb := make([]byte, recHdrSize)
	segFormat.Put(tomb, recTombstone, false, 2, 4, 0, 0)
	one := frame(1, diffs[0])
	batch := append(one, frame(4, diffs[1], diffs[2], diffs[3])...)
	healed := append(append(append([]byte(nil), batch...), tomb...), frame(4, diffs[2])...)
	return [][]byte{one, batch, healed, batch[:len(batch)-5]}
}

// fuzzRestoreMaxData bounds the buffer the restore harness will
// reconstruct; the format itself admits terabyte buffers, but the fuzz
// engine should not allocate them.
const fuzzRestoreMaxData = 1 << 22

// FuzzRestore decodes a concatenated sequence of diffs, appends each to
// a lineage and restores the latest checkpoint. Append validates
// geometry, bitmaps and shift references, so any input that survives it
// must replay without a panic or out-of-range access.
func FuzzRestore(f *testing.F) {
	// A lineage from checkpoint 0, and one compacted to baseline 7: the
	// second diff reads both itself and the baseline.
	for _, base := range []uint32{0, 7} {
		var lineage bytes.Buffer
		full := &Diff{Method: MethodFull, CkptID: base, DataLen: 40, ChunkSize: 8,
			Data: bytes.Repeat([]byte{1}, 40)}
		if err := full.Encode(&lineage); err != nil {
			f.Fatal(err)
		}
		tree := &Diff{Method: MethodTree, CkptID: base + 1, DataLen: 40, ChunkSize: 8,
			FirstOcur: Firsts(1),
			ShiftDupl: Shifts(ShiftRegion{Node: 6, SrcNode: 1, SrcCkpt: base + 1}, ShiftRegion{Node: 5, SrcNode: 5, SrcCkpt: base}),
			Data:      bytes.Repeat([]byte{4}, 24)}
		if err := tree.Encode(&lineage); err != nil {
			f.Fatal(err)
		}
		f.Add(lineage.Bytes())
	}
	// Two fills over the same 5-chunk geometry (node 3 is chunks 0-1,
	// node 4 chunk 2, node 7 chunk 0, node 1 chunks 0-2): a valid one
	// whose 8-byte sources tile 16-byte destinations, and one whose
	// 16-byte source does not divide its 24-byte destination.
	for _, shifts := range []ShiftList{
		Shifts(ShiftRegion{Node: 3, SrcNode: 4, SrcCkpt: 1}, ShiftRegion{Node: 2, SrcNode: 7, SrcCkpt: 0}),
		Shifts(ShiftRegion{Node: 1, SrcNode: 3, SrcCkpt: 0}),
	} {
		var lineage bytes.Buffer
		for _, d := range []*Diff{
			{Method: MethodFull, CkptID: 0, DataLen: 40, ChunkSize: 8, Data: bytes.Repeat([]byte{1}, 40)},
			{Method: MethodTree, CkptID: 1, DataLen: 40, ChunkSize: 8, FirstOcur: Firsts(4), ShiftDupl: shifts,
				Data: bytes.Repeat([]byte{4}, 8)},
		} {
			if err := d.Encode(&lineage); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(lineage.Bytes())
	}
	for _, d := range sampleDiffs() {
		f.Add(encodeSeed(f, d))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rec := NewRecord()
		for rec.Len()-rec.Base() < 8 {
			d, err := Decode(r)
			if err != nil {
				break
			}
			if d.DataLen > fuzzRestoreMaxData {
				return
			}
			// Cap the chunk count too: the lineage index builds a
			// merkle geometry with ~32 bytes per chunk.
			if d.ChunkSize > 0 && NumChunksU64(d.DataLen, uint64(d.ChunkSize)) > 1<<16 {
				return
			}
			if err := rec.Append(d); err != nil {
				break
			}
		}
		if rec.Len() == rec.Base() {
			return
		}
		state, err := rec.RestoreLatest()
		if err != nil {
			return
		}
		if len(state) != rec.DataLen() {
			t.Fatalf("restored %d bytes, record says %d", len(state), rec.DataLen())
		}
	})
}
