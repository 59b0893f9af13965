package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// gdvBlock is a 4 KiB block shaped like a sparse GDV of the ORANGES
// workload: mostly zero words, the rest small counters.
func gdvBlock(seed int64) []byte {
	p := counterPayload(seed, 4096)
	for i := 0; i < len(p); i += 4 {
		if v := binary.LittleEndian.Uint32(p[i:]); v%3 != 0 {
			binary.LittleEndian.PutUint32(p[i:], 0)
		} else {
			binary.LittleEndian.PutUint32(p[i:], v%29)
		}
	}
	return p
}

// packSize returns the length of pack number num of s.
func packSize(t *testing.T, s *Store, num uint32) int64 {
	t.Helper()
	st, err := os.Stat(s.packPath(num))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestPackedStorage: GDV-shaped blocks are stored packed, in under a
// fifth of their bytes with record headers and IDs counted, and read
// back byte-exact through Get and AppendBlocks, before and after a
// reopen. Random blocks are stored exactly as a store that packs
// nothing stores them: the pack is byte-identical to its raw records.
func TestPackedStorage(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var gdv [][]byte
	for i := 0; i < 64; i++ {
		gdv = append(gdv, gdvBlock(int64(i)))
	}
	refs, err := s.Intern(gdv)
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(len(gdv) * 4096)
	stored := packSize(t, s, 1)
	t.Logf("%d GDV blocks: %d bytes stored for %d (%.3f), %d in the records' payloads",
		len(gdv), stored, raw, float64(stored)/float64(raw), s.Stats().StoredBytes)
	if stored*5 > raw {
		t.Fatalf("GDV blocks stored in %d bytes of %d, want at most a fifth", stored, raw)
	}
	if want := stored - blockRecOverhead*int64(len(gdv)+1); s.Stats().StoredBytes != want {
		t.Fatalf("Stats.StoredBytes %d, want the %d bytes the records store", s.Stats().StoredBytes, want)
	}
	check := func(s *Store, when string) {
		t.Helper()
		for i, r := range refs {
			if p, err := s.Get(r); err != nil || !bytes.Equal(p, gdv[i]) {
				t.Fatalf("%s: block %d reads back %v", when, i, err)
			}
		}
		var sc ReadScratch
		got, _, err := s.AppendBlocks([]byte("head"), 0, refs, &sc)
		if err != nil || !bytes.Equal(got, append([]byte("head"), bytes.Join(gdv, nil)...)) {
			t.Fatalf("%s: AppendBlocks: %v", when, err)
		}
	}
	check(s, "after the intern")
	s.Close()
	check(mustOpen(t, dir), "after a reopen")

	rdir := t.TempDir()
	r := mustOpen(t, rdir)
	var random [][]byte
	var want []byte
	for i := 0; i < 16; i++ {
		p := testPayload(int64(i), 4096)
		random = append(random, p)
		id := IDOf(p)
		want = appendRec(want, recBlock, i < 15, []ID{id}, p)
	}
	if _, err := r.Intern(random); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(r.packPath(1)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("random blocks are not stored as raw records, byte for byte: %v", err)
	}
}

// TestGCMovesPackedBlock: GC relocating a sealed pack copies a packed
// block as the packed record it is — the moved record stores the same
// bytes and carries the block's length and CRC — and the block reads
// back byte-exact from the copy, before and after a reopen that loads
// the snapshot GC committed.
func TestGCMovesPackedBlock(t *testing.T) {
	dir := t.TempDir()
	s := openRoll(t, dir)
	keep := gdvBlock(1)
	junk := [][]byte{testPayload(2, 1000), testPayload(3, 1000)}
	refs, err := s.Intern(append([][]byte{keep}, junk...))
	if err != nil {
		t.Fatal(err)
	}
	_, _, n, err := s.Locate(refs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if n >= blockRecOverhead+4096 {
		t.Fatalf("the GDV block takes a %d-byte record: not packed", n)
	}
	if _, err := s.Intern([][]byte{testPayload(4, 64)}); err != nil { // seals pack 1
		t.Fatal(err)
	}
	if _, err := s.GC(markOf(keep)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.packPath(1)); !os.IsNotExist(err) {
		t.Fatalf("GC left the sparse pack: %v", err)
	}
	path, off, n2, err := s.Locate(refs[0].ID)
	if err != nil || n2 != n {
		t.Fatalf("the moved record takes %d bytes, the block record %d: %v", n2, n, err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := packFormat.Parse(img[off:])
	if !ok || h.Kind != recMoved || h.A != 4096 || h.B != blockCRC(refs[0].ID[:], keep) {
		t.Fatalf("the moved record's header is %+v, want a packed moved record", h)
	}
	if p, err := s.Get(refs[0]); err != nil || !bytes.Equal(p, keep) {
		t.Fatalf("the moved block reads back %v", err)
	}
	s.Close()
	s = mustOpen(t, dir)
	if p, err := s.Get(refs[0]); err != nil || !bytes.Equal(p, keep) {
		t.Fatalf("after a reopen, the moved block reads back %v", err)
	}
	if st := s.Stats(); st.Blocks != 1 || st.StoredBytes != n-blockRecOverhead {
		t.Fatalf("after a reopen the store holds %+v, want the packed block alone", st)
	}
}

// rawStore writes, as a build that stored every block raw did, a pack
// of raw records of blocks and, when index is set, a version 3 snapshot
// folding the pack up to its end. It returns the directory.
func rawStore(t *testing.T, blocks [][]byte, index bool) string {
	t.Helper()
	dir := t.TempDir()
	var img []byte
	entries := map[ID]entry{}
	var ids []ID
	for _, p := range blocks {
		id := IDOf(p)
		entries[id] = entry{off: int64(len(img)), pack: 1, len: uint32(len(p)), crc: blockCRC(id[:], p)}
		ids = append(ids, id)
		img = appendRec(img, recBlock, false, []ID{id}, p)
	}
	if err := os.WriteFile((&Store{dir: dir}).packPath(1), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if index {
		sortIDs(ids)
		snap := encodeRawIndex(1, logPos{pack: 1, off: int64(len(img))}, ids, entries)
		if err := os.WriteFile(filepath.Join(dir, indexFileName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// encodeRawIndex is encodeIndex as the builds that stored every block
// raw wrote it: version 3, no stored length.
func encodeRawIndex(gen uint64, mark logPos, ids []ID, entries map[ID]entry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, indexMagic)
	buf = append(buf, rawVersion)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, mark.pack)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mark.off))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		e := entries[id]
		buf = append(buf, id[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, e.pack)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.off))
		buf = binary.LittleEndian.AppendUint32(buf, e.len)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	}
	buf = binary.LittleEndian.AppendUint32(buf, indexFooterMagic)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestRawStoreOpensUnchanged: a store whose packs hold raw records only
// — packable blocks among them — and whose snapshot is version 3, as
// the builds before packing left it, opens, reads every block
// byte-exact and changes no file; interning one of its packable blocks
// again is a dedup hit, not ErrCollision, and writes nothing.
func TestRawStoreOpensUnchanged(t *testing.T) {
	blocks := [][]byte{gdvBlock(1), testPayload(2, 4096), gdvBlock(3), counterPayload(4, 100)}
	for _, index := range []bool{false, true} {
		dir := rawStore(t, blocks, index)
		before := dirImage(t, dir)
		s := mustOpen(t, dir)
		for _, p := range blocks {
			if got, err := s.Get(Ref{ID: IDOf(p), Len: uint32(len(p))}); err != nil || !bytes.Equal(got, p) {
				t.Fatalf("index %v: a raw block reads back %v", index, err)
			}
		}
		if st := s.Stats(); st.Blocks != len(blocks) || st.StoredBytes != 3*4096+100 {
			t.Fatalf("index %v: stats %+v", index, st)
		}
		refs, err := s.Intern(blocks[:1])
		if err != nil {
			t.Fatalf("index %v: interning a block the store holds raw: %v", index, err)
		}
		if st := s.Stats(); st.DedupHits != 1 || st.Interned != 0 {
			t.Fatalf("index %v: interning a block the store holds raw: %+v, want a hit", index, st)
		}
		if p, err := s.Get(refs[0]); err != nil || !bytes.Equal(p, blocks[0]) {
			t.Fatalf("index %v: %v", index, err)
		}
		after := dirImage(t, dir)
		if len(after) != len(before) {
			t.Fatalf("index %v: the store holds %d files, was %d", index, len(after), len(before))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Fatalf("index %v: opening and reading changed %s", index, name)
			}
		}
		// The next GC writes the current snapshot; the blocks stay raw.
		if _, err := s.GC(markAll(s)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s = mustOpen(t, dir)
		for _, p := range blocks {
			if got, err := s.Get(Ref{ID: IDOf(p), Len: uint32(len(p))}); err != nil || !bytes.Equal(got, p) {
				t.Fatalf("index %v: after GC, a raw block reads back %v", index, err)
			}
		}
	}
}

// rawBuildFormat is the pack framing as the builds that stored every
// block raw accepted it: user fields zero.
var rawBuildFormat = recframe.Format{
	Magic: packFormat.Magic,
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

// TestPackedPackRefusedByRawBuilds: to a build that stored every block
// raw, a pack with packed records — appended to one of its own packs,
// as the last frame — holds a committed ref record ahead of them: the
// version record, which that build's open refuses with its ErrOldLayout
// before it cuts anything. Scanning the pack as that build did, the
// version record is kept and the packed record is not.
func TestPackedPackRefusedByRawBuilds(t *testing.T) {
	dir := rawStore(t, [][]byte{testPayload(1, 300)}, false)
	s := mustOpen(t, dir)
	if _, err := s.Intern([][]byte{testPayload(2, 300), gdvBlock(3)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.Open((&Store{dir: dir}).packPath(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Seek(0, io.SeekEnd)
	recs, committed, err := rawBuildFormat.Scan(f, size, false)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
	}
	if !bytes.Equal(kinds, []byte{recBlock, recRef}) || committed != recs[1].Next() {
		t.Fatalf("a raw build scans records of kinds %v, committed to %d; want a block, then the version record, committed", kinds, committed)
	}
	var payload [idSize]byte
	if _, err := f.ReadAt(payload[:], recs[1].Off+recframe.HdrSize); err != nil || payload != packVersion {
		t.Fatalf("the ref record a raw build meets is not the version record: %v", err)
	}
}

// TestReadPackedAllocs: a reader that keeps its scratch reads packed
// blocks, run after run, without allocating.
func TestReadPackedAllocs(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var blocks [][]byte
	for i := 0; i < 8; i++ {
		blocks = append(blocks, mixedPayload(int64(i), 4096))
	}
	refs, err := s.Intern(blocks)
	if err != nil {
		t.Fatal(err)
	}
	var sc ReadScratch
	dst := make([]byte, 0, 8*4096)
	allocs := testing.AllocsPerRun(20, func() {
		if dst, _, err = s.AppendBlocks(dst[:0], 0, refs, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !bytes.Equal(dst, bytes.Join(blocks, nil)) {
		t.Fatalf("AppendBlocks of packed and raw blocks allocates %.0f times", allocs)
	}
}

// TestPackedRecordRot: a flipped bit anywhere in what a packed record
// stores fails its read typed, and so does a packed layout that its
// record's CRC vouches for but that does not unpack to the block.
func TestPackedRecordRot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := gdvBlock(7)
	refs, err := s.Intern([][]byte{p, testPayload(8, 64)})
	if err != nil {
		t.Fatal(err)
	}
	path, off, n, err := s.Locate(refs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for at := off + blockRecOverhead; at < off+n; at += 37 {
		flipByte(t, path, at)
		s := mustOpen(t, dir)
		if _, err := s.Get(refs[0]); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("flip at %d: %v, want a typed failure", at-off, err)
		}
		s.Close()
		flipByte(t, path, at)
	}
	// A layout whose CRC verifies but which declares a different length.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := packFormat.Parse(img[off:])
	packed := compress.AppendPacked(nil, p[:4092])
	rec := appendPackedRec(nil, recBlock, false, refs[0].ID, packed, h.A, h.B)
	bad := append(append(append([]byte(nil), img[:off]...), rec...), img[off+n:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	if _, err := s.Get(refs[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a layout of other bytes: %v, want ErrCorrupt", err)
	}
}
