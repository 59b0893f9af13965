package blockstore_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// These tests run GC's mark over real lineages, the way a server runs
// it over its root: the mark reports what every lineage open when it
// enumerates references, while pushes and new lineages keep arriving.

// chunkSize is the block size of the test roots: every chunk below is
// one block.
const chunkSize = 64

// chunk returns the 64 seeded random bytes of one block.
func chunk(seed int64) []byte {
	p := make([]byte, chunkSize)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// chunks returns n chunks seeded from seed on.
func chunks(seed int64, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = chunk(seed + int64(i))
	}
	return out
}

// testRoot is a block store and the lineages that intern into it.
type testRoot struct {
	dir string
	bs  *blockstore.Store

	mu   sync.Mutex
	lins []*testLineage
}

// testLineage is one lineage of full-image diffs — all of a lineage's
// images are the same size — and the image each of its ids must restore
// to.
type testLineage struct {
	name   string
	fs     *checkpoint.FileStore
	images map[int][]byte
}

// newTestRoot opens a block store under a fresh root, with packs that
// seal at 1 KiB so that GC relocates.
func newTestRoot(t *testing.T) *testRoot {
	t.Helper()
	r := &testRoot{dir: t.TempDir()}
	r.openStore(t)
	blockstore.SetRollSize(r.bs, 1<<10)
	return r
}

func (r *testRoot) openStore(t *testing.T) {
	t.Helper()
	bs, err := blockstore.Open(filepath.Join(r.dir, blockstore.DirName), blockstore.Options{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bs.Close() })
	r.bs = bs
}

// open opens lineage name on the root's store and registers it, so that
// every mark enumerating after this call finds it.
func (r *testRoot) open(t *testing.T, name string) *testLineage {
	t.Helper()
	fs, err := checkpoint.NewFileStoreWith(filepath.Join(r.dir, name), r.bs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	l := &testLineage{name: name, fs: fs, images: map[int][]byte{}}
	r.mu.Lock()
	r.lins = append(r.lins, l)
	r.mu.Unlock()
	return l
}

// mark returns the GC mark over the lineages registered when it runs.
// after, if set, runs once the mark has enumerated them (i = -1) and
// after it marked the i-th.
func (r *testRoot) mark(after func(i int)) func(live func(blockstore.ID)) error {
	return func(live func(blockstore.ID)) error {
		r.mu.Lock()
		lins := append([]*testLineage(nil), r.lins...)
		r.mu.Unlock()
		if after != nil {
			after(-1)
		}
		for i, l := range lins {
			if err := l.fs.MarkBlocks(live); err != nil {
				return err
			}
			if after != nil {
				after(i)
			}
		}
		return nil
	}
}

// fullDiff is the diff of checkpoint id that stores data whole.
func fullDiff(id int, data []byte) *checkpoint.Diff {
	return &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(id), DataLen: uint64(len(data)), ChunkSize: 16, Data: data}
}

// push appends one diff per image, made of the given chunks, as one
// batch.
func (l *testLineage) push(t *testing.T, images ...[][]byte) {
	t.Helper()
	var ds []*checkpoint.Diff
	for i, cs := range images {
		data := bytes.Join(cs, nil)
		id := l.fs.Len() + i
		ds = append(ds, fullDiff(id, data))
		l.images[id] = data
	}
	if _, err := l.fs.AppendBatch(ds); err != nil {
		t.Errorf("lineage %s: push: %v", l.name, err)
	}
}

// verify requires every checkpoint of every lineage to restore
// byte-exact.
func (r *testRoot) verify(t *testing.T, when string) {
	t.Helper()
	for _, l := range r.lins {
		rec, err := l.fs.Load()
		if err != nil {
			t.Fatalf("%s: lineage %s: %v", when, l.name, err)
		}
		for k := rec.Base(); k < rec.Len(); k++ {
			if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, l.images[k]) {
				t.Fatalf("%s: lineage %s: checkpoint %d does not restore byte-exact: %v", when, l.name, k, err)
			}
		}
	}
}

// reopen closes the store and every lineage and opens them again.
func (r *testRoot) reopen(t *testing.T) {
	t.Helper()
	for _, l := range r.lins {
		l.fs.Close()
	}
	r.bs.Close()
	r.openStore(t)
	for _, l := range r.lins {
		fs, err := checkpoint.NewFileStoreWith(filepath.Join(r.dir, l.name), r.bs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		l.fs = fs
	}
}

// seedRoot fills a root the way the interleaving tests start from: a
// junk lineage whose first three checkpoints a fold dropped — their
// blocks are dead, and one shares the first pack with a live block, so
// GC relocates that pack — then lineages a and b. It returns the dead
// chunks.
func seedRoot(t *testing.T, r *testRoot) (dead [][]byte) {
	t.Helper()
	junk := r.open(t, "junk")
	for k := 0; k < 4; k++ {
		junk.push(t, chunks(int64(1000+100*k), 8))
	}
	kept := append(chunks(1300, 7), chunk(1100)) // one block of checkpoint 1 survives the fold
	junk.images = map[int][]byte{3: bytes.Join(kept, nil)}
	if err := junk.fs.InstallSpan(3, []*checkpoint.Diff{fullDiff(3, junk.images[3])}); err != nil {
		t.Fatal(err)
	}
	r.open(t, "a").push(t, chunks(2000, 6), chunks(2100, 6))
	r.open(t, "b").push(t, chunks(3000, 6))
	return chunks(1000, 8)
}

// collect runs one GC with mark and requires it to have relocated the
// first pack, reclaimed the dead chunks nothing hit, and left every
// checkpoint restoring byte-exact, before and after a reopen.
func (r *testRoot) collect(t *testing.T, mark func(live func(blockstore.ID)) error, dead [][]byte) {
	t.Helper()
	gc, err := r.bs.GC(mark)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(r.dir, blockstore.DirName, "pack-000001.log")); !os.IsNotExist(err) {
		t.Fatalf("GC %+v did not relocate the first pack: %v", gc, err)
	}
	for _, p := range dead {
		if _, err := r.bs.Get(blockstore.Ref{ID: blockstore.IDOf(p)}); !errors.Is(err, blockstore.ErrNotFound) {
			t.Fatalf("GC %+v kept a dead block nothing hit: %v", gc, err)
		}
	}
	r.verify(t, "after GC")
	r.reopen(t)
	r.verify(t, "after GC and a reopen")
}

// TestGCMarkThenPush is interleaving (a): a lineage the mark has
// already read takes a push — new blocks, a hit on a live block, and
// hits on blocks nothing referenced when the GC began — before the GC
// sweeps. Every block the push references survives the GC.
func TestGCMarkThenPush(t *testing.T) {
	r := newTestRoot(t)
	dead := seedRoot(t, r)
	a, b := r.lins[1], r.lins[2]
	mark := r.mark(func(i int) {
		if i == 1 { // a is marked
			a.push(t, append(chunks(2200, 3), dead[0], dead[1], chunk(3000)))
		}
	})
	r.collect(t, mark, dead[2:])
	if b.fs.Len() != 1 || a.fs.Len() != 3 {
		t.Fatalf("lineages hold %d and %d checkpoints, want 3 and 1", a.fs.Len(), b.fs.Len())
	}
}

// TestGCMarkThenOpen is interleaving (b): a lineage opened after the mark
// enumerated the lineages — so the mark never reads it — pushes new
// blocks and hits on live and dead ones before the GC sweeps. All of
// them survive.
func TestGCMarkThenOpen(t *testing.T) {
	r := newTestRoot(t)
	dead := seedRoot(t, r)
	mark := r.mark(func(i int) {
		if i == -1 {
			r.open(t, "c").push(t, append(chunks(4000, 4), dead[0], chunk(2000)), append(chunks(4100, 5), dead[1]))
		}
	})
	r.collect(t, mark, dead[2:])
}

// TestRaceGCMarkPush races pushers — each batch new blocks, hits on a
// shared pool and hits on blocks a fold left dead — against GCs run back
// to back, each marking the lineages as they stand. No GC may fail, and
// every checkpoint restores byte-exact at the end.
func TestRaceGCMarkPush(t *testing.T) {
	r := newTestRoot(t)
	dead := seedRoot(t, r)
	pool := chunks(2000, 6) // lineage a's first checkpoint
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		l := r.open(t, []string{"p0", "p1"}[w])
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				seed := int64(10000*(w+1) + 100*i)
				l.push(t,
					append(chunks(seed, 4), pool[i%len(pool)], dead[i%len(dead)]),
					append(chunks(seed+50, 5), pool[(i+w)%len(pool)]))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for gcs := 0; ; gcs++ {
		if _, err := r.bs.GC(r.mark(nil)); err != nil {
			t.Fatalf("GC %d: %v", gcs, err)
		}
		select {
		case <-done:
			r.verify(t, "after the race")
			if _, err := r.bs.GC(r.mark(nil)); err != nil {
				t.Fatal(err)
			}
			r.verify(t, "after a final GC")
			return
		default:
		}
	}
}
