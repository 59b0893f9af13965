package checkpoint

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
)

// openShared opens the shared block store plus two lineage stores
// under one root, the layout of a ckptd server.
func openShared(t *testing.T, root string, lineages ...string) (*blockstore.Store, []*FileStore) {
	t.Helper()
	bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		t.Fatalf("blockstore.Open: %v", err)
	}
	t.Cleanup(func() { bs.Close() })
	stores := make([]*FileStore, 0, len(lineages))
	for _, name := range lineages {
		fs, err := NewFileStoreWith(filepath.Join(root, name), bs)
		if err != nil {
			t.Fatalf("NewFileStoreWith(%s): %v", name, err)
		}
		stores = append(stores, fs)
	}
	return bs, stores
}

// markStores is a block-store GC mark over the given lineages.
func markStores(stores ...*FileStore) func(live func(blockstore.ID)) error {
	return func(live func(blockstore.ID)) error {
		for _, fs := range stores {
			if err := fs.MarkBlocks(live); err != nil {
				return err
			}
		}
		return nil
	}
}

// mappedLen is the length of most test diffs: two whole 4096-byte blocks
// of the block store and a short third.
const mappedLen = 2*4096 + 640

func randomDiff(ck int, seed int64, n int) *Diff {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return &Diff{Method: MethodFull, CkptID: uint32(ck), DataLen: uint64(n), ChunkSize: 16, Data: data}
}

// TestBlockStoreCrossLineageDedup is the tentpole acceptance: two
// lineages appending identical states share every payload block, so
// the shared store holds each chunk exactly once while both lineages
// restore byte-exact.
func TestBlockStoreCrossLineageDedup(t *testing.T) {
	root := t.TempDir()
	bs, stores := openShared(t, root, "tenant-a", "tenant-b")
	for ck := 0; ck < 4; ck++ {
		d := randomDiff(ck, int64(ck), mappedLen) // identical bytes per ckpt in both lineages
		for _, fs := range stores {
			if err := fs.Append(d); err != nil {
				t.Fatalf("append ckpt %d: %v", ck, err)
			}
		}
	}
	st := bs.Stats()
	// Every chunk of lineage B was already interned by lineage A.
	if st.DedupHits != st.Interned {
		t.Fatalf("dedup hits %d, interned %d: second lineage did not fully dedup", st.DedupHits, st.Interned)
	}
	if st.SavedBytes != uint64(st.StoredBytes) {
		t.Fatalf("saved %d bytes, stored %d: shared chunks not stored exactly once", st.SavedBytes, st.StoredBytes)
	}
	for i, fs := range stores {
		rec, err := fs.Load()
		if err != nil {
			t.Fatalf("lineage %d load: %v", i, err)
		}
		for ck := 0; ck < 4; ck++ {
			got, err := rec.Restore(ck)
			if err != nil {
				t.Fatalf("lineage %d restore %d: %v", i, ck, err)
			}
			want := randomDiff(ck, int64(ck), mappedLen).Data
			if !bytes.Equal(got, want) {
				t.Fatalf("lineage %d restore %d diverged", i, ck)
			}
		}
	}
}

// TestBlockStoreDiffBytesCanonical: a block-mapped file must serve the
// byte-identical canonical encoding a self-contained file would — the
// server's idempotent-replay CRC and every client depend on it.
func TestBlockStoreDiffBytesCanonical(t *testing.T) {
	root := t.TempDir()
	_, stores := openShared(t, root, "shared")
	plain, err := NewFileStore(filepath.Join(t.TempDir(), "plain"))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	d := randomDiff(0, 42, 4096+333)
	if err := stores[0].Append(d); err != nil {
		t.Fatal(err)
	}
	if err := plain.Append(d); err != nil {
		t.Fatal(err)
	}
	b1, err := stores[0].DiffBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := plain.DiffBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("block-mapped DiffBytes diverged from canonical: %d vs %d bytes", len(b1), len(b2))
	}
	// The on-disk record, by contrast, holds the small container.
	_, _, size, err := stores[0].Locate(0)
	if err != nil {
		t.Fatal(err)
	}
	if size >= int64(len(b2)) {
		t.Fatalf("container record %d bytes, not smaller than canonical %d", size, len(b2))
	}
}

// TestBlockStoreReleaseOnPrune: folding history away leaves its blocks
// unreferenced; a GC marking from the lineages keeps the blocks shared
// with a surviving lineage and reclaims the ones no one references.
func TestBlockStoreReleaseOnPrune(t *testing.T) {
	root := t.TempDir()
	bs, stores := openShared(t, root, "a", "b")
	shared := randomDiff(0, 1, mappedLen)
	for _, fs := range stores {
		if err := fs.Append(shared); err != nil {
			t.Fatal(err)
		}
	}
	// Lineage a grows private history, then compacts it away.
	for ck := 1; ck <= 3; ck++ {
		if err := stores[0].Append(randomDiff(ck, 100+int64(ck), mappedLen)); err != nil {
			t.Fatal(err)
		}
	}
	// Move a's baseline to 3: the old segment's records are gone.
	base := randomDiff(3, 999, mappedLen)
	if err := stores[0].InstallSpan(3, []*Diff{base}); err != nil {
		t.Fatal(err)
	}
	gc, err := bs.GC(markStores(stores...))
	if err != nil {
		t.Fatal(err)
	}
	if gc.Reclaimed == 0 {
		t.Fatal("GC reclaimed nothing after pruning a's private history")
	}
	// b still restores its copy of the shared state byte-exact.
	rec, err := stores[1].Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Restore(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shared.Data) {
		t.Fatal("lineage b's shared state corrupted by a's prune+GC")
	}
	// a restores its new baseline.
	reca, err := stores[0].Load()
	if err != nil {
		t.Fatal(err)
	}
	gota, err := reca.Restore(reca.Base())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gota, base.Data) {
		t.Fatal("lineage a's baseline corrupted by prune+GC")
	}
}

// TestBlockStoreSelfContainedCompat: a lineage written without a block
// store (self-contained records) opens under a shared store, loads
// byte-exact, and is interned when compaction rewrites it — which
// record shape is written follows from whether a store is attached,
// and both are always readable.
func TestBlockStoreSelfContainedCompat(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "plain")

	// Write the lineage with no sibling _blocks: self-contained records.
	plain, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 3; ck++ {
		if err := plain.Append(randomDiff(ck, int64(ck), mappedLen)); err != nil {
			t.Fatal(err)
		}
	}
	plain.Close()

	// Reopen the same directory attached to a shared store.
	bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	fs, err := NewFileStoreWith(dir, bs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatalf("self-contained lineage under shared store: %v", err)
	}
	for ck := 0; ck < 3; ck++ {
		got, err := rec.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, randomDiff(ck, int64(ck), mappedLen).Data) {
			t.Fatalf("self-contained restore %d diverged", ck)
		}
	}
	if bs.Stats().Interned != 0 {
		t.Fatal("merely loading a self-contained lineage interned blocks")
	}

	// Rewriting the lineage (the compaction path) interns it.
	foldTo(t, fs, 0)
	if bs.Stats().Interned == 0 {
		t.Fatal("InstallSpan did not intern the rewritten diffs")
	}
	path, off, size, err := fs.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBlockMapped(seg[off+recHdrSize : off+size]) {
		t.Fatal("rewritten record is not block-mapped")
	}
	rec2, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec2.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, randomDiff(1, 1, mappedLen).Data) {
		t.Fatal("transparently interned diff restores differently")
	}
}

// TestBlockStoreAutoAttach: NewFileStore on a lineage inside a stopped
// server root (sibling _blocks present) attaches the store read-only,
// so restoretool and ReadRecordDir resolve block-mapped files while a
// write fails typed, having touched nothing; Close closes the attached
// store.
func TestBlockStoreAutoAttach(t *testing.T) {
	root := t.TempDir()
	bs, stores := openShared(t, root, "lineage")
	d := randomDiff(0, 5, mappedLen)
	if err := stores[0].Append(d); err != nil {
		t.Fatal(err)
	}
	bs.Close() // single-owner rule: release before the tool opens it

	fs, err := NewFileStore(filepath.Join(root, "lineage"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatalf("auto-attach load: %v", err)
	}
	got, err := rec.Restore(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d.Data) {
		t.Fatal("auto-attach restore diverged")
	}
	seg := filepath.Join(root, "lineage", segmentName(0))
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(randomDiff(1, 6, mappedLen)); !errors.Is(err, blockstore.ErrReadOnly) {
		t.Fatalf("Append through the attach over a stopped root: %v, want blockstore.ErrReadOnly", err)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused Append changed the segment (%v)", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockStoreAutoAttachReadOnlyFallback: NewFileStore on a lineage
// inside a LIVE ckptd root (the writable owner holds the block store
// lock) attaches read-only too — loads resolve block-mapped diffs,
// while writes that would intern into the shared store fail typed
// instead of racing the owner.
func TestBlockStoreAutoAttachReadOnlyFallback(t *testing.T) {
	if !blockstore.LockingSupported() {
		t.Skip("no owner locking on this platform")
	}
	root := t.TempDir()
	bs, stores := openShared(t, root, "lineage")
	d := randomDiff(0, 5, mappedLen)
	if err := stores[0].Append(d); err != nil {
		t.Fatal(err)
	}
	// The owner stays open — the live-server case.
	fs, err := NewFileStore(filepath.Join(root, "lineage"))
	if err != nil {
		t.Fatalf("auto-attach with live owner: %v", err)
	}
	defer fs.Close()
	rec, err := fs.Load()
	if err != nil {
		t.Fatalf("read-only auto-attach load: %v", err)
	}
	got, err := rec.Restore(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d.Data) {
		t.Fatal("read-only auto-attach restore diverged")
	}
	if err := fs.Append(randomDiff(1, 6, mappedLen)); !errors.Is(err, blockstore.ErrReadOnly) {
		t.Fatalf("Append through read-only attach: %v, want blockstore.ErrReadOnly", err)
	}
	// The owner keeps working throughout.
	if err := stores[0].Append(randomDiff(1, 7, mappedLen)); err != nil {
		t.Fatalf("owner append with read-only observer attached: %v", err)
	}
	_ = bs
}

// TestBlockStoreMissingStoreIsConfigError: a block-mapped lineage
// moved away from its _blocks sibling fails with a plain error, not
// corruption — scrub must not report diffs it cannot resolve as corrupt.
func TestBlockStoreMissingStoreIsConfigError(t *testing.T) {
	root := t.TempDir()
	bs, stores := openShared(t, root, "lineage")
	if err := stores[0].Append(randomDiff(0, 6, mappedLen)); err != nil {
		t.Fatal(err)
	}
	bs.Close()

	// Copy the lineage dir elsewhere, stranding it from _blocks.
	stray := filepath.Join(t.TempDir(), "stray")
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "lineage"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(root, "lineage", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stray, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(stray)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, err = fs.Load()
	if err == nil {
		t.Fatal("stranded block-mapped lineage loaded successfully")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("config error typed as corruption: %v", err)
	}
	if !errors.Is(err, errNoBlockStore) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBlockStoreRotSurfacesAsCorrupt: rot in a referenced block makes
// every referencing lineage fail typed, never restore garbage.
func TestBlockStoreRotSurfacesAsCorrupt(t *testing.T) {
	root := t.TempDir()
	bs, stores := openShared(t, root, "a", "b")
	d := randomDiff(0, 7, mappedLen)
	for _, fs := range stores {
		if err := fs.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	// Rot one shared block on disk.
	var ids []blockstore.ID
	if err := stores[0].MarkBlocks(func(id blockstore.ID) { ids = append(ids, id) }); err != nil || len(ids) == 0 {
		t.Fatalf("no block refs recorded: %v", err)
	}
	path, off, _, err := bs.Locate(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off+10); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off+10); err != nil {
		t.Fatal(err)
	}
	for i, fs := range stores {
		if _, err := fs.Load(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lineage %d load with rotten shared block: %v, want ErrCorrupt", i, err)
		}
	}
}

// TestSiblingOldBlockLayoutRefused: the sibling auto-attach surfaces
// the block store's refusal of the replaced file-per-block layout
// unchanged, and leaves the directory alone.
func TestSiblingOldBlockLayoutRefused(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, blockstore.DirName, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(filepath.Join(root, "lin")); !errors.Is(err, blockstore.ErrOldLayout) {
		t.Fatalf("NewFileStore beside an old-layout block store: %v, want blockstore.ErrOldLayout", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(root, blockstore.DirName)); len(entries) != 1 {
		t.Fatalf("refused block store now holds %v", entries)
	}
}

// TestAppendDiffReadsInPlace: a record that fits in dst's spare
// capacity is read there, not into the scratch, and the diff written
// over it follows dst's own bytes exactly — block-mapped or
// self-contained. A dst without room reads through the scratch.
func TestAppendDiffReadsInPlace(t *testing.T) {
	_, stores := openShared(t, t.TempDir(), "mapped")
	plain, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for i, fs := range []*FileStore{stores[0], plain} {
		if err := fs.Append(randomDiff(0, 1, 4096)); err != nil {
			t.Fatal(err)
		}
		path, off, size, err := fs.Locate(0)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if IsBlockMapped(seg[off+recHdrSize:off+size]) != (i == 0) {
			t.Fatalf("store %d: record block-mapped %v", i, i != 0)
		}
		want, err := fs.DiffBytes(0)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := fs.Span(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sc ReadScratch
		got, _, err := sp.AppendDiff(append(make([]byte, 0, 2*len(want)), "kept"...), 0, &sc)
		if err != nil || string(got[:4]) != "kept" || !bytes.Equal(got[4:], want) || sc.rec != nil {
			t.Fatalf("store %d, dst with room: %v; scratch used %v", i, err, sc.rec != nil)
		}
		got, _, err = sp.AppendDiff([]byte("kept"), 0, &sc)
		if err != nil || string(got[:4]) != "kept" || !bytes.Equal(got[4:], want) || sc.rec == nil {
			t.Fatalf("store %d, dst without room: %v; scratch used %v", i, err, sc.rec != nil)
		}
	}
}
