package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
)

// TestInstallSpanAdoptsForwardBase covers the replication resync
// case: a lagging mirror (here holding diffs
// [0,2)) installs a post-fold span [5,8) whose baseline lies beyond
// its current length, and the store's committed state becomes exactly
// that span — including after a reopen.
func TestInstallSpanAdoptsForwardBase(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 2; ck++ {
		if err := fs.Append(storeDiff(ck, byte(ck+1))); err != nil {
			t.Fatal(err)
		}
	}
	span := []*Diff{storeDiff(5, 50), storeDiff(6, 60), storeDiff(7, 70)}
	if err := fs.InstallSpan(5, span); err != nil {
		t.Fatal(err)
	}
	check := func(fs *FileStore, label string) {
		t.Helper()
		if got := fs.Base(); got != 5 {
			t.Fatalf("%s: base = %d, want 5", label, got)
		}
		if n := fs.Len(); n != 8 {
			t.Fatalf("%s: len = %d, want 8", label, n)
		}
		rec, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		for i, tag := range []byte{50, 60, 70} {
			got, err := rec.Restore(5 + i)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != tag {
				t.Fatalf("%s: restore %d = tag %d, want %d", label, 5+i, got[0], tag)
			}
		}
	}
	check(fs, "installed")
	// The pre-span diffs must be gone with their segment, not stranded.
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("old segment after install: %v", err)
	}
	// Appending continues from the span's end.
	if err := fs.Append(storeDiff(8, 80)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if n := fs2.Len(); n != 9 {
		t.Fatalf("reopened len = %d, want 9", n)
	}
	if fs2.Base() != 5 {
		t.Fatalf("reopened base = %d, want 5", fs2.Base())
	}
}

// TestInstallSpanOverwritesDivergedSuffix: a same-base install
// replaces the stored bytes — the resync path for a mirror whose
// suffix diverged from the primary after a fold rewrite.
func TestInstallSpanOverwritesDivergedSuffix(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for ck := 0; ck < 3; ck++ {
		if err := fs.Append(storeDiff(ck, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.InstallSpan(0, []*Diff{storeDiff(0, 9), storeDiff(1, 8), storeDiff(2, 7)}); err != nil {
		t.Fatal(err)
	}
	if fs.Base() != 0 {
		t.Fatalf("base moved to %d on same-base install", fs.Base())
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range []byte{9, 8, 7} {
		got, err := rec.Restore(i)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tag {
			t.Fatalf("restore %d = tag %d, want %d", i, got[0], tag)
		}
	}
}

func TestInstallSpanValidation(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.InstallSpan(3, nil); err == nil || !strings.Contains(err.Error(), "no diffs") {
		t.Fatalf("empty span: %v", err)
	}
	// Non-contiguous ids.
	if err := fs.InstallSpan(3, []*Diff{storeDiff(3, 1), storeDiff(5, 2)}); err == nil {
		t.Fatal("gap in span accepted")
	}
	// First id not at base.
	if err := fs.InstallSpan(3, []*Diff{storeDiff(4, 1)}); err == nil {
		t.Fatal("span starting past base accepted")
	}
	// Shift reference below the span baseline.
	d := storeDiff(4, 1)
	d.Method = MethodList
	d.ShiftDupl = Shifts(ShiftRegion{SrcCkpt: 2})
	if err := fs.InstallSpan(4, []*Diff{d}); err == nil {
		t.Fatal("span with sub-baseline shift reference accepted")
	}
	// Baseline behind an already committed one.
	if err := fs.InstallSpan(5, []*Diff{storeDiff(5, 1), storeDiff(6, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := fs.InstallSpan(4, []*Diff{storeDiff(4, 1), storeDiff(5, 2)}); err == nil {
		t.Fatal("backwards baseline accepted")
	}
}

// TestSpanAppendDiff: a span serves exactly the bytes DiffBytes does,
// for block-mapped and self-contained records alike, appended behind
// whatever dst already holds.
func TestSpanAppendDiff(t *testing.T) {
	_, shared := openShared(t, t.TempDir(), "mapped")
	plain, err := NewFileStore(filepath.Join(t.TempDir(), "plain"))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for _, fs := range []*FileStore{shared[0], plain} {
		for ck := 0; ck < 4; ck++ {
			if err := fs.Append(randomDiff(ck, int64(ck), 1000)); err != nil {
				t.Fatal(err)
			}
		}
		sp, err := fs.Span(1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if from, to := sp.Bounds(); from != 1 || to != 4 {
			t.Fatalf("bounds [%d,%d)", from, to)
		}
		var sc ReadScratch
		for ck := 1; ck < 4; ck++ {
			want, err := fs.DiffBytes(ck)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := sp.AppendDiff([]byte("head"), ck, &sc)
			if err != nil || !bytes.Equal(got, append([]byte("head"), want...)) {
				t.Fatalf("diff %d through the span: %d bytes, %v; want %d", ck, len(got), err, len(want)+4)
			}
		}
		if _, _, err := sp.AppendDiff(nil, 0, &sc); err == nil {
			t.Fatal("a diff outside the span was served")
		}
	}
}

// TestSpanAppendDiffCRC: the CRC32C AppendDiff returns is the checksum
// of exactly what it appended, for a self-contained diff (the record's
// CRC), a block-mapped one of raw blocks and one whose blocks the store
// packed (folded in as the blocks land), whether the record is read
// into the scratch or into dst's spare capacity.
func TestSpanAppendDiffCRC(t *testing.T) {
	bs, shared := openShared(t, t.TempDir(), "mapped")
	plain, err := NewFileStore(filepath.Join(t.TempDir(), "plain"))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	// Counter-shaped data: one small word per 64-byte block, the rest
	// zero, so each block is distinct and packs.
	sparse := make([]byte, 8192)
	for i := 0; i < len(sparse); i += 64 {
		binary.LittleEndian.PutUint32(sparse[i:], uint32(i/64+1))
	}
	packedDiff := &Diff{Method: MethodFull, CkptID: 1, DataLen: uint64(len(sparse)), ChunkSize: 16, Data: sparse}
	tab := crc32.MakeTable(crc32.Castagnoli)
	for _, c := range []struct {
		name string
		fs   *FileStore
	}{{"self-contained", plain}, {"raw blocks", shared[0]}, {"packed blocks", shared[0]}} {
		ck := c.fs.Len()
		d := randomDiff(ck, int64(ck), 8192)
		if c.name == "packed blocks" {
			d = packedDiff
		}
		before := bs.Stats().StoredBytes
		if err := c.fs.Append(d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if stored := bs.Stats().StoredBytes - before; c.name == "packed blocks" && stored >= int64(len(sparse)) {
			t.Fatalf("packed blocks: %d bytes stored for %d: the blocks did not pack", stored, len(sparse))
		}
		path, off, size, err := c.fs.Locate(ck)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if IsBlockMapped(seg[off+recHdrSize:off+size]) != (c.fs == shared[0]) {
			t.Fatalf("%s: record block-mapped %v", c.name, c.fs != shared[0])
		}
		sp, err := c.fs.Span(ck, ck+1)
		if err != nil {
			t.Fatal(err)
		}
		// A dst with room has the record read into its spare capacity.
		for _, dst := range [][]byte{[]byte("head"), append(make([]byte, 0, 4*8192), "head"...)} {
			got, crc, err := sp.AppendDiff(dst, ck, &ReadScratch{})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if want := crc32.Checksum(got[4:], tab); crc != want {
				t.Fatalf("%s, dst capacity %d: AppendDiff returned CRC %08x, the %d bytes it appended hash to %08x", c.name, cap(dst), crc, len(got)-4, want)
			}
		}
	}
}

// TestSpanRange: an empty span or one past Len is out of range; one
// that starts below the baseline moved.
func TestSpanRange(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for ck := 0; ck < 4; ck++ {
		if err := fs.Append(storeDiff(ck, byte(ck+1))); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int{{2, 2}, {3, 2}, {0, 5}, {4, 5}} {
		if _, err := fs.Span(r[0], r[1]); err == nil || errors.Is(err, ErrSpanMoved) {
			t.Fatalf("span [%d,%d): %v, want a plain range error", r[0], r[1], err)
		}
	}
	if err := fs.InstallSpan(2, []*Diff{fullDiffAt(2), fullDiffAt(3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Span(0, 4); !errors.Is(err, ErrSpanMoved) {
		t.Fatalf("span below the baseline: %v, want ErrSpanMoved", err)
	}
	if _, err := fs.Span(2, 4); err != nil {
		t.Fatal(err)
	}
}

// fullDiffAt is a self-sufficient diff for checkpoint ck.
func fullDiffAt(ck int) *Diff { return storeDiff(ck, byte(ck+1)) }

// TestSpanMovesWithInstall: a span is one generation of the lineage. A
// rewrite under it — even one that keeps the ids it covers — ends it
// with ErrSpanMoved; it never serves diffs of two generations.
func TestSpanMovesWithInstall(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for ck := 0; ck < 4; ck++ {
		if err := fs.Append(fullDiffAt(ck)); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := fs.Span(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sc ReadScratch
	if _, _, err := sp.AppendDiff(nil, 1, &sc); err != nil {
		t.Fatal(err)
	}
	// An append does not move the span...
	if err := fs.Append(fullDiffAt(4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sp.AppendDiff(nil, 2, &sc); err != nil {
		t.Fatalf("read after an append: %v", err)
	}
	// ...a rewrite does.
	if err := fs.InstallSpan(1, []*Diff{fullDiffAt(1), fullDiffAt(2), fullDiffAt(3), fullDiffAt(4)}); err != nil {
		t.Fatal(err)
	}
	if got, _, err := sp.AppendDiff([]byte("kept"), 3, &sc); !errors.Is(err, ErrSpanMoved) || string(got) != "kept" {
		t.Fatalf("read after a rewrite: %q, %v; want dst back and ErrSpanMoved", got, err)
	}
	if _, err := fs.DiffBytes(3); err != nil {
		t.Fatalf("an unpinned read after the rewrite: %v", err)
	}
}

// TestTailFollows: a tail may start empty at Len, Follow grows it with
// every append of its generation and ends it with ErrSpanMoved once the
// lineage is rewritten; a tail cannot start below the baseline or past
// the end.
func TestTailFollows(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tail, err := fs.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	if from, to := tail.Bounds(); from != 0 || to != 0 {
		t.Fatalf("tail of an empty lineage covers [%d,%d)", from, to)
	}
	for ck := 0; ck < 3; ck++ {
		if err := fs.Append(fullDiffAt(ck)); err != nil {
			t.Fatal(err)
		}
	}
	if _, to := tail.Bounds(); to != 0 {
		t.Fatal("a tail grew without Follow")
	}
	if tail, err = tail.Follow(); err != nil {
		t.Fatal(err)
	}
	var sc ReadScratch
	for ck := 0; ck < 3; ck++ {
		got, _, err := tail.AppendDiff(nil, ck, &sc)
		if want, _ := fs.DiffBytes(ck); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("diff %d through the followed tail: %v", ck, err)
		}
	}
	if _, err := fs.Tail(4); err == nil || errors.Is(err, ErrSpanMoved) {
		t.Fatalf("tail past the end: %v, want a plain range error", err)
	}
	if err := fs.InstallSpan(1, []*Diff{fullDiffAt(1), fullDiffAt(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Follow(); !errors.Is(err, ErrSpanMoved) {
		t.Fatalf("follow after a rewrite: %v, want ErrSpanMoved", err)
	}
	if _, err := fs.Tail(0); !errors.Is(err, ErrSpanMoved) {
		t.Fatalf("tail below the baseline: %v, want ErrSpanMoved", err)
	}
	if tail, err = fs.Tail(3); err != nil {
		t.Fatal(err)
	}
	if from, to := tail.Bounds(); from != 3 || to != 3 {
		t.Fatalf("tail at the end covers [%d,%d)", from, to)
	}
}

// TestSpanRotNamesCheckpoint: damage under a span read is a
// *CorruptError naming the checkpoint and the block, the diffs before it
// stay servable, and dst comes back as it went in — for every byte of
// the run the diff's blocks are read as, header, ID and payload alike, so
// only full verification of every record before sending catches it.
func TestSpanRotNamesCheckpoint(t *testing.T) {
	bs, stores := openShared(t, t.TempDir(), "lin")
	fs := stores[0]
	for ck := 0; ck < 3; ck++ {
		if err := fs.Append(randomDiff(ck, int64(ck+1), 640)); err != nil {
			t.Fatal(err)
		}
	}
	raw := make([]byte, 4096)
	_, off, length, err := fs.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.seg.ReadAt(raw[:length], off); err != nil {
		t.Fatal(err)
	}
	_, enc, _, err := parseBlockDiff(raw[recHdrSize:length])
	if err != nil {
		t.Fatal(err)
	}
	refs := appendRefs(nil, enc)
	// The ten blocks of checkpoint 1 went into the pack in one frame:
	// one run on the way back.
	path, start, blen, err := bs.Locate(refs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		if _, boff, _, err := bs.Locate(r.ID); err != nil || boff != start+int64(i)*blen {
			t.Fatalf("block %d of checkpoint 1 sits at %d (%v), want %d: not one run", i, boff, err, start+int64(i)*blen)
		}
	}
	sp, err := fs.Span(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sc ReadScratch
	for at := int64(0); at < int64(len(refs))*blen; at++ {
		flipByte(t, path, start+at)
		if _, _, err := sp.AppendDiff(nil, 0, &sc); err != nil {
			t.Fatalf("byte %d: the diff before the damage: %v", at, err)
		}
		got, _, err := sp.AppendDiff([]byte("kept"), 1, &sc)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Ckpt != 1 || !errors.Is(err, blockstore.ErrCorrupt) || string(got) != "kept" {
			t.Fatalf("byte %d: %q, %v; want dst back and a CorruptError naming checkpoint 1", at, got, err)
		}
		if want := refs[at/blen].ID.String(); !strings.Contains(err.Error(), want) {
			t.Fatalf("byte %d lies in the record of block %s; the error names another: %v", at, want, err)
		}
		flipByte(t, path, start+at)
	}
	if _, _, err := sp.AppendDiff(nil, 1, &sc); err != nil {
		t.Fatalf("with every byte put back: %v", err)
	}
}

// flipByte inverts one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestSpanAppendDiffAllocs: with a warm scratch and a destination that
// has grown to the diff, a read allocates the same small constant
// whether the diff maps to 2 blocks or 200.
func TestSpanAppendDiffAllocs(t *testing.T) {
	_, stores := openShared(t, t.TempDir(), "lin")
	fs := stores[0]
	if err := fs.Append(randomDiff(0, 1, 128)); err != nil { // 2 blocks of 64
		t.Fatal(err)
	}
	if err := fs.Append(randomDiff(1, 2, 12800)); err != nil { // 200 blocks
		t.Fatal(err)
	}
	sp, err := fs.Span(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sc ReadScratch
	var dst []byte
	allocs := func(ck int) float64 {
		read := func() {
			if dst, _, err = sp.AppendDiff(dst[:0], ck, &sc); err != nil {
				t.Fatal(err)
			}
		}
		read() // warm
		return testing.AllocsPerRun(50, read)
	}
	large, small := allocs(1), allocs(0)
	if large != small || large > 2 {
		t.Fatalf("a read allocates %.0f times for 200 blocks, %.0f for 2; want equal and at most 2", large, small)
	}
}
