package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// fuzzIndexSeeds builds a few valid snapshots of varying size for the
// seed corpus.
func fuzzIndexSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, n := range []int{0, 1, 3, 17} {
		entries := map[ID]entry{}
		var ids []ID
		for i := 0; i < n; i++ {
			id := IDOf([]byte(fmt.Sprintf("seed-%d-%d", n, i)))
			entries[id] = entry{off: int64(i) * 4140, pack: uint32(1 + i%2), len: uint32(4096), crc: uint32(i * 31)}
			ids = append(ids, id)
		}
		sortIDs(ids)
		b, err := encodeIndex(uint64(n), logPos{pack: uint32(n), off: int64(n) << 20}, ids, entries)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzBlockIndexDecode feeds arbitrary bytes to the index-snapshot
// decoder. An input that decodes must re-encode to the identical byte
// stream (the encoding is canonical: ascending-ID order, whole-file
// CRC) — log position and block locations included — unless it is a
// snapshot of the raw-only builds, whose re-encoding in the current
// version must decode to the same state; a snapshot of the
// counting builds must be refused with ErrOldLayout; and the decoder
// must never panic or allocate unboundedly on garbage: the snapshot is
// the commit record of GC, so a corrupted one must fail typed, not
// half-load.
func FuzzBlockIndexDecode(f *testing.F) {
	for _, s := range fuzzIndexSeeds(f) {
		f.Add(s)
	}
	one := IDOf([]byte("seed-counted"))
	f.Add(encodeCountedIndex(1, logPos{pack: 1}, []ID{one}, map[ID]entry{one: {pack: 1, len: 4096}}))
	f.Add(encodeRawIndex(1, logPos{pack: 1}, []ID{one}, map[ID]entry{one: {pack: 1, len: 4096, stored: 4096}}))
	// Invalid-by-construction seeds steer the fuzzer at the validation
	// paths: wrong magic, absurd count, truncated footer.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x47, 0x42, 0x49, 0x58, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, mark, entries, err := DecodeIndex(data)
		counted := len(data) > 4 && data[4] == countedVersion
		if errors.Is(err, ErrOldLayout) != counted && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot of the counting builds %v: %v", counted, err)
		}
		if err != nil {
			return
		}
		ids := make([]ID, 0, len(entries))
		for id := range entries {
			ids = append(ids, id)
		}
		sortIDs(ids)
		b, err := encodeIndex(gen, mark, ids, entries)
		if err != nil {
			t.Fatalf("re-encode of decoded index failed: %v", err)
		}
		if data[4] == formatVersion && !bytes.Equal(b, data) {
			t.Fatalf("decoded index is not canonical: %d vs %d bytes", len(b), len(data))
		}
		gen2, mark2, entries2, err := DecodeIndex(b)
		if err != nil || gen2 != gen || mark2 != mark || !reflect.DeepEqual(entries2, entries) {
			t.Fatalf("re-encoded index decodes differently: %v", err)
		}
	})
}

// appendRec appends one pack record — ids, then data — to img.
func appendRec(img []byte, kind byte, more bool, ids []ID, data []byte) []byte {
	var payload []byte
	for _, id := range ids {
		payload = append(payload, id[:]...)
	}
	return appendRecAB(img, kind, more, append(payload, data...), 0, 0)
}

// appendPackedRec appends one packed block record — the ID, then the
// packed layout — whose header carries the block's length a and CRC b.
func appendPackedRec(img []byte, kind byte, more bool, id ID, packed []byte, a, b uint32) []byte {
	return appendRecAB(img, kind, more, append(id[:], packed...), a, b)
}

func appendRecAB(img []byte, kind byte, more bool, payload []byte, a, b uint32) []byte {
	hdr := make([]byte, recframe.HdrSize)
	packFormat.Put(hdr, kind, more, a, b, uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	return append(append(img, hdr...), payload...)
}

// packSeeds returns pack images for the fuzz corpus: an intern of new
// blocks, a frame of three, a relocation, a torn tail, two images of
// the builds that counted references — a frame one of them committed
// with a ref record, and that build's release — which are refused, and
// packed records: a version record, a frame packing one block of two,
// and GC's packed copy of it.
func packSeeds() [][]byte {
	a, b, c := []byte("block a"), bytes.Repeat([]byte{0xB}, 300), []byte{}
	ia, ib, ic := IDOf(a), IDOf(b), IDOf(c)
	one := appendRec(nil, recBlock, false, []ID{ia}, a)
	three := appendRec(one, recBlock, true, []ID{ib}, b)
	three = appendRec(three, recBlock, false, []ID{ic}, c)
	moved := appendRec(three, recMoved, false, []ID{ib}, b)
	counted := appendRec(appendRec(one, recBlock, true, []ID{ib}, b), recRef, false, []ID{ia, ib}, nil)
	released := appendRec(counted, recRelease, false, []ID{ia}, nil)

	d := counterPayload(1, 400)
	id := IDOf(d)
	version := appendRec(one, recRef, false, []ID{packVersion}, nil)
	packed := appendPackedRec(version, recBlock, true, id, compress.AppendPacked(nil, d), uint32(len(d)), blockCRC(id[:], d))
	packed = appendRec(packed, recBlock, false, []ID{ib}, b)
	packedMoved := appendPackedRec(packed, recMoved, false, id, compress.AppendPacked(nil, d), uint32(len(d)), blockCRC(id[:], d))
	return [][]byte{one, three, moved, moved[:len(moved)-9], counted, released, packed, packedMoved}
}

// openPackImage opens a store whose only pack is img. A pack of the
// counting builds is refused with ErrOldLayout, and left as it was.
func openPackImage(t *testing.T, img []byte) (*Store, error) {
	t.Helper()
	dir := t.TempDir()
	path := (&Store{dir: dir}).packPath(1)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		if after, rerr := os.ReadFile(path); !errors.Is(err, ErrOldLayout) || rerr != nil || !bytes.Equal(after, img) {
			t.Fatalf("open over a pack image: %v; the pack is unchanged: %v", err, rerr == nil && bytes.Equal(after, img))
		}
		return nil, err
	}
	t.Cleanup(func() { s.Close() })
	return s, nil
}

// FuzzPackScan hands arbitrary bytes to the open-time scan as a pack.
// The open must not panic, must refuse a pack of the counting builds
// with ErrOldLayout and write nothing, and otherwise must index only
// records both of whose checksums verify (so it never sizes anything
// from a length or ID count it has not checked) and keep its running
// totals exact. Then the bytes become a block of a valid pack — its
// frame committed by a second block's record, and a third block's
// frame after it — with one corrupted byte somewhere: a block whose record still verifies reads
// back exactly, and one whose record does not fails typed, never with
// altered bytes.
func FuzzPackScan(f *testing.F) {
	for _, img := range packSeeds() {
		f.Add(img, uint16(0), byte(0))
		f.Add(img, uint16(len(img)/2), byte(0x40))
	}
	f.Add([]byte{}, uint16(3), byte(0xFF))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint16(70), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		s, err := openPackImage(t, data)
		if err != nil {
			return
		}
		var total int64
		for id, e := range s.entries {
			total += int64(e.stored)
			rec := data[e.off:]
			h, ok := packFormat.Parse(rec)
			h.Off = e.off
			if !ok || recordEntry(h, e.pack) != e || int(h.Next()-h.Off) > len(rec) ||
				crc32.Checksum(rec[recframe.HdrSize:h.Next()-h.Off], castagnoli) != h.CRC ||
				ID(rec[recframe.HdrSize:blockRecOverhead]) != id {
				t.Fatalf("block %s indexed at %d over a record that does not verify", id, e.off)
			}
			if p, err := s.Get(Ref{ID: id}); err == nil && IDOf(p) != id || err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("indexed block %s read back as %d bytes, %v", id, len(p), err)
			}
		}
		if st := s.Stats(); st.Blocks != len(s.entries) || st.StoredBytes != total {
			t.Fatalf("stats %+v over %d entries of %d bytes", st, len(s.entries), total)
		}

		id, next, last := IDOf(data), []byte("the next block"), []byte("the last block")
		img := appendRec(nil, recBlock, true, []ID{id}, data)
		img = appendRec(img, recBlock, false, []ID{IDOf(next)}, next)
		img = appendRec(img, recBlock, false, []ID{IDOf(last)}, last)
		s, err = openPackImage(t, img)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := s.Get(Ref{ID: id}); err != nil || !bytes.Equal(p, data) {
			t.Fatalf("valid pack: block read back as %d bytes, %v", len(p), err)
		}
		if mask == 0 {
			mask = 1
		}
		at := int(pos) % len(img)
		img[at] ^= mask
		if s, err = openPackImage(t, img); err != nil {
			t.Fatal(err)
		}
		p, err := s.Get(Ref{ID: id})
		switch {
		case err == nil && bytes.Equal(p, data):
		case at < blockRecOverhead+len(data) && (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound)):
		default:
			t.Fatalf("flip of byte %d (mask %02x): block read back as %d bytes, %v", at, mask, len(p), err)
		}
	})
}
