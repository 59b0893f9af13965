package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

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
// CRC) — log position and block locations included — or, for a
// snapshot of the earlier version, to one that decodes to the same
// state; and the decoder must never panic or allocate unboundedly on
// garbage: the snapshot is the commit record of GC, so a corrupted one
// must fail typed, not half-load.
func FuzzBlockIndexDecode(f *testing.F) {
	for _, s := range fuzzIndexSeeds(f) {
		f.Add(s)
	}
	// Invalid-by-construction seeds steer the fuzzer at the validation
	// paths: wrong magic, absurd count, truncated footer.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x47, 0x42, 0x49, 0x58, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, mark, entries, err := DecodeIndex(data)
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
	payload = append(payload, data...)
	hdr := make([]byte, recframe.HdrSize)
	packFormat.Put(hdr, kind, more, 0, 0, uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	return append(append(img, hdr...), payload...)
}

// packSeeds returns pack images for the fuzz corpus: an intern of new
// blocks, a frame an earlier build committed with a ref record, that
// build's release, a relocation, and a torn tail.
func packSeeds() [][]byte {
	a, b, c := []byte("block a"), bytes.Repeat([]byte{0xB}, 300), []byte{}
	ia, ib, ic := IDOf(a), IDOf(b), IDOf(c)
	one := appendRec(nil, recBlock, false, []ID{ia}, a)
	mixed := appendRec(one, recBlock, true, []ID{ib}, b)
	mixed = appendRec(mixed, recBlock, true, []ID{ic}, c)
	mixed = appendRec(mixed, recRef, false, []ID{ia, ib}, nil)
	moved := appendRec(mixed, recRelease, false, []ID{ia, ic}, nil)
	moved = appendRec(moved, recMoved, false, []ID{ib}, b)
	return [][]byte{one, mixed, moved, moved[:len(moved)-9]}
}

// openPackImage opens a store whose only pack is img.
func openPackImage(t *testing.T, img []byte) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile((&Store{dir: dir}).packPath(1), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over a pack image: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// FuzzPackScan hands arbitrary bytes to the open-time scan as a pack.
// The open must not panic, must index only records both of whose
// checksums verify (so it never sizes anything from a length or ID
// count it has not checked), and must keep its running totals exact.
// Then the bytes become a block of a valid pack — written the way an
// earlier build did, its frame committed by a ref record and two ref
// records after it — with one corrupted byte somewhere: a block whose
// record still verifies reads back exactly, and one whose record does
// not fails typed, never with altered bytes.
func FuzzPackScan(f *testing.F) {
	for _, img := range packSeeds() {
		f.Add(img, uint16(0), byte(0))
		f.Add(img, uint16(len(img)/2), byte(0x40))
	}
	f.Add([]byte{}, uint16(3), byte(0xFF))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint16(70), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		s := openPackImage(t, data)
		var total int64
		for id, e := range s.entries {
			total += int64(e.len)
			rec := data[e.off:]
			h, ok := packFormat.Parse(rec)
			if !ok || h.Len != e.len+idSize || int(h.Next()) > len(rec) ||
				crc32.Checksum(rec[recframe.HdrSize:h.Next()], castagnoli) != e.crc || h.CRC != e.crc ||
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

		id := IDOf(data)
		img := appendRec(nil, recBlock, true, []ID{id}, data)
		img = appendRec(img, recRef, false, []ID{id}, nil)
		img = appendRec(img, recRef, false, []ID{id}, nil)
		if p, err := openPackImage(t, img).Get(Ref{ID: id}); err != nil || !bytes.Equal(p, data) {
			t.Fatalf("valid pack: block read back as %d bytes, %v", len(p), err)
		}
		if mask == 0 {
			mask = 1
		}
		at := int(pos) % len(img)
		img[at] ^= mask
		p, err := openPackImage(t, img).Get(Ref{ID: id})
		switch {
		case err == nil && bytes.Equal(p, data):
		case at < blockRecOverhead+len(data) && (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound)):
		default:
			t.Fatalf("flip of byte %d (mask %02x): block read back as %d bytes, %v", at, mask, len(p), err)
		}
	})
}
