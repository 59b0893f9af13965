package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

func testPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// counterPayload returns n bytes of little-endian uint32 counters under
// 2^12, which a store packs to about three eighths of their size.
func counterPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(p[i:], uint32(rng.Intn(1<<12)))
	}
	return p
}

// mixedPayload is counterPayload for an even seed and testPayload for
// an odd one: a run of seeds makes blocks of both kinds.
func mixedPayload(seed int64, n int) []byte {
	if seed%2 == 0 {
		return counterPayload(seed, n)
	}
	return testPayload(seed, n)
}

// deltaPayload returns n bytes of little-endian uint32 counters that
// start near 2^20 and step by at most 3 either way: too wide to pack
// well, a few bits a word as deltas.
func deltaPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	w := uint32(1<<20 + rng.Intn(1<<16))
	for i := 0; i+4 <= n; i += 4 {
		w += uint32(rng.Intn(7) - 3)
		binary.LittleEndian.PutUint32(p[i:], w)
	}
	return p
}

// layoutPayload makes a run of seeds cycle through the three layouts:
// deltaPayload, counterPayload and testPayload for a seed of 1, 2 and 0
// modulo 3.
func layoutPayload(seed int64, n int) []byte {
	switch seed % 3 {
	case 1:
		return deltaPayload(seed, n)
	case 2:
		return counterPayload(seed, n)
	}
	return testPayload(seed, n)
}

// markOf is a GC mark that finds the blocks of ps, and only those, live.
func markOf(ps ...[]byte) func(live func(ID)) error {
	return func(live func(ID)) error {
		for _, p := range ps {
			live(IDOf(p))
		}
		return nil
	}
}

// markAll is a GC mark that finds every block s holds live.
func markAll(s *Store) func(live func(ID)) error {
	return func(live func(ID)) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for id := range s.entries {
			live(id)
		}
		return nil
	}
}

// held reports whether s indexes a block for id.
func held(s *Store, id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := New(dir)
	if err != nil {
		t.Fatalf("New(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestInternGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	chunks := [][]byte{testPayload(1, 4096), testPayload(2, 4096), testPayload(3, 100)}
	refs, err := s.Intern(chunks)
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if len(refs) != 3 {
		t.Fatalf("got %d refs, want 3", len(refs))
	}
	for i, r := range refs {
		got, err := s.Get(r)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Fatalf("chunk %d mismatch", i)
		}
		if r.Len != uint32(len(chunks[i])) {
			t.Fatalf("chunk %d ref len %d, want %d", i, r.Len, len(chunks[i]))
		}
	}
}

func TestInternDeduplicates(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	p := testPayload(7, 4096)
	refs1, err := s.Intern([][]byte{p})
	if err != nil {
		t.Fatalf("Intern 1: %v", err)
	}
	refs2, err := s.Intern([][]byte{append([]byte(nil), p...)})
	if err != nil {
		t.Fatalf("Intern 2: %v", err)
	}
	if refs1[0] != refs2[0] {
		t.Fatalf("same payload got different refs: %v vs %v", refs1[0], refs2[0])
	}
	st := s.Stats()
	if st.Blocks != 1 {
		t.Fatalf("store holds %d blocks, want 1", st.Blocks)
	}
	if st.DedupHits != 1 || st.SavedBytes != 4096 {
		t.Fatalf("dedup hits %d saved %d, want 1/4096", st.DedupHits, st.SavedBytes)
	}
	// The log holds the payload once, and the hit wrote nothing.
	info, err := os.Stat(s.packPath(1))
	if want := int64(blockRecOverhead + 4096); err != nil || info.Size() != want {
		t.Fatalf("pack holds %d bytes (err %v), want %d", info.Size(), err, want)
	}
}

func TestSplit(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, n := range []int{0, 1, 4095, 4096, 4097, 3 * 4096} {
		p := testPayload(int64(n), n)
		chunks := s.Split(p)
		var total int
		for i, c := range chunks {
			if i < len(chunks)-1 && len(c) != chunkSize {
				t.Fatalf("n=%d: chunk %d has %d bytes", n, i, len(c))
			}
			total += len(c)
		}
		if total != n {
			t.Fatalf("n=%d: chunks total %d", n, total)
		}
		if n == 0 && chunks != nil {
			t.Fatalf("Split of empty payload returned %d chunks", len(chunks))
		}
	}
}

// TestReleaseAndGC: a block the mark does not find, and no Intern
// returned during the GC, is reclaimed; a marked one stays readable.
func TestReleaseAndGC(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	keep := testPayload(1, 4096)
	drop := testPayload(2, 4096)
	refs, err := s.Intern([][]byte{keep, drop})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	st, err := s.GC(markOf(keep))
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if st.Live != 1 || st.Reclaimed != 1 || st.ReclaimedBytes != 4096 {
		t.Fatalf("GC stats %+v", st)
	}
	if _, err := s.Get(refs[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of reclaimed block: %v, want ErrNotFound", err)
	}
	got, err := s.Get(refs[0])
	if err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("kept block after GC: %v", err)
	}
	if _, _, _, err := s.Locate(refs[1].ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reclaimed block still located: %v", err)
	}
}

// TestGCMarkFailureReclaimsNothing: a mark that fails leaves every
// block in place, and the next GC whose mark succeeds reclaims.
func TestGCMarkFailureReclaimsNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	keep, drop := testPayload(1, 64), testPayload(2, 64)
	if _, err := s.Intern([][]byte{keep, drop}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("unreadable lineage")
	if gc, err := s.GC(func(func(ID)) error { return boom }); !errors.Is(err, boom) || gc.Reclaimed != 0 {
		t.Fatalf("GC with a failed mark: %+v, %v", gc, err)
	}
	if !held(s, IDOf(keep)) || !held(s, IDOf(drop)) {
		t.Fatal("a GC whose mark failed reclaimed a block")
	}
	if gc, err := s.GC(markOf(keep)); err != nil || gc.Reclaimed != 1 {
		t.Fatalf("GC after the failed one: %+v, %v", gc, err)
	}
}

func TestReopenReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p1, p2 := testPayload(1, 4096), testPayload(2, 4096)
	refs, err := s.Intern([][]byte{p1, p2, p1})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	if st := s2.Stats(); st.Blocks != 2 || st.StoredBytes != 2*4096 {
		t.Fatalf("reopened store holds %d blocks of %d bytes, want 2 of %d", st.Blocks, st.StoredBytes, 2*4096)
	}
	for i, p := range [][]byte{p1, p2} {
		if got, err := s2.Get(refs[i]); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("Get %d after reopen: %v", i, err)
		}
	}
}

func TestReopenAfterGCLoadsSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := testPayload(1, 4096)
	refs, err := s.Intern([][]byte{p, testPayload(2, 4096)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if _, err := s.GC(markOf(p)); err != nil {
		t.Fatalf("GC: %v", err)
	}
	// More log traffic past the snapshot.
	refs2, err := s.Intern([][]byte{testPayload(3, 100)})
	if err != nil {
		t.Fatalf("Intern post-GC: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	for _, r := range []Ref{refs[0], refs2[0]} {
		if _, err := s2.Get(r); err != nil {
			t.Fatalf("Get(%s) after GC+reopen: %v", r.ID, err)
		}
	}
	if held(s2, refs[1].ID) {
		t.Fatal("reclaimed block resurrected by reopen")
	}
}

// TestCrashBeforeGCCommit aborts GC before the snapshot rename: the
// old state must survive a reopen untouched.
func TestCrashBeforeGCCommit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keep := testPayload(1, 4096)
	refs, err := s.Intern([][]byte{keep, testPayload(2, 4096)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	boom := errors.New("injected failure")
	s.SetHooks(failAt("gc-before", boom))
	if _, err := s.GC(markOf(keep)); !errors.Is(err, boom) {
		t.Fatalf("GC: %v, want injected crash", err)
	}
	s.Close() // the "crash"

	s2 := mustOpen(t, dir)
	if _, err := s2.Get(refs[0]); err != nil {
		t.Fatalf("Get after aborted GC: %v", err)
	}
	// Only a COMMITTED GC drops the dead block from the index; an
	// aborted one keeps it.
	if !held(s2, refs[1].ID) {
		t.Fatal("aborted GC lost the dead entry")
	}
}

// TestCrashAfterGCCommit aborts GC after the snapshot rename: the
// reopen must see the committed transaction.
func TestCrashAfterGCCommit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keep := testPayload(1, 4096)
	refs, err := s.Intern([][]byte{keep, testPayload(2, 4096)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	boom := errors.New("injected failure")
	s.SetHooks(failAt("gc-after", boom))
	if _, err := s.GC(markOf(keep)); !errors.Is(err, boom) {
		t.Fatalf("GC: %v, want injected crash", err)
	}
	s.Close() // the "crash": snapshot committed

	s2 := mustOpen(t, dir)
	if held(s2, refs[1].ID) {
		t.Fatal("committed GC left the dead entry live after recovery")
	}
	if _, err := s2.Get(refs[0]); err != nil {
		t.Fatalf("Get after recovered GC: %v", err)
	}
}

func TestGetDetectsBitRot(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	refs, err := s.Intern([][]byte{testPayload(1, 4096)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	path, off, _, err := s.Locate(refs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, off+100)
	if _, err := s.Get(refs[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of rotten block: %v, want ErrCorrupt", err)
	}
}

// flipByte inverts the byte at off of the file at path, in place.
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

func TestGetDetectsTruncatedBlock(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	refs, err := s.Intern([][]byte{testPayload(1, 4096)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	path, off, _, err := s.Locate(refs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, off+10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(refs[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of truncated block: %v, want ErrCorrupt", err)
	}
}

func TestCorruptIndexFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Intern([][]byte{testPayload(1, 64)}); err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if _, err := s.GC(markAll(s)); err != nil {
		t.Fatalf("GC: %v", err)
	}
	s.Close()

	path := filepath.Join(dir, indexFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with rotten index: %v, want ErrCorrupt", err)
	}
}

// TestReadOnlyOpenCoexistsWithOwner: a writable owner excludes other
// writable opens (ErrBusy) but not read-only ones, and a read-only
// store serves reads while refusing every mutation.
func TestReadOnlyOpenCoexistsWithOwner(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := testPayload(1, 4096)
	refs, err := s.Intern([][]byte{p})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if lockingSupported {
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrBusy) {
			t.Fatalf("second writable Open under a live owner: %v, want ErrBusy", err)
		}
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open under a live owner: %v", err)
	}
	defer ro.Close()
	got, err := ro.Get(refs[0])
	if err != nil || !bytes.Equal(got, p) {
		t.Fatalf("read-only Get: %v", err)
	}
	if _, err := ro.Intern([][]byte{testPayload(2, 64)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Intern: %v, want ErrReadOnly", err)
	}
	if _, err := ro.GC(markAll(ro)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only GC: %v, want ErrReadOnly", err)
	}
	// Closing the owner frees the lock for the next writable open.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("writable Open after owner closed: %v", err)
	}
	w2.Close()
}

// TestReadOnlyOpenLeavesDebris: read-only recovery must not touch the
// directory — a tool inspecting a crashed store must not race the
// owner that will later recover it for real.
func TestReadOnlyOpenLeavesDebris(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	refs, err := s.Intern([][]byte{testPayload(1, 4096)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	s.Close()

	// Plant crash debris: a torn frame at the end of the log and a
	// snapshot a dying GC staged.
	ppath := s.packPath(1)
	pf, err := os.OpenFile(ppath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	staged := filepath.Join(dir, indexFileName+"-1"+recframe.TmpSuffix)
	if err := os.WriteFile(staged, []byte("staged"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(ppath)
	if err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open over crash debris: %v", err)
	}
	defer ro.Close()
	if _, err := ro.Get(refs[0]); err != nil {
		t.Fatalf("read-only Get over crash debris: %v", err)
	}
	if _, err := os.Stat(staged); err != nil {
		t.Fatalf("read-only open swept the staged snapshot: %v", err)
	}
	after, err := os.Stat(ppath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("read-only open cut the torn tail: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestOldLayoutRefused: a directory of the file-per-block layout gets
// a typed refusal from both kinds of open, and nothing in it changes.
func TestOldLayoutRefused(t *testing.T) {
	for _, name := range []string{"data", "blockstore.journal"} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, ro := range []bool{false, true} {
			if _, err := Open(dir, Options{ReadOnly: ro}); !errors.Is(err, ErrOldLayout) {
				t.Fatalf("%s, read-only %v: Open returned %v, want ErrOldLayout", name, ro, err)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s: the refused open left %d entries in the directory, want 1", name, len(entries))
		}
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	refs, err := s.Intern([][]byte{testPayload(1, 64)})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Intern([][]byte{testPayload(2, 64)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Intern after Close: %v", err)
	}
	if _, err := s.Get(refs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	if _, err := s.GC(markAll(s)); !errors.Is(err, ErrClosed) {
		t.Fatalf("GC after Close: %v", err)
	}
}

func TestConcurrentIntern(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	shared := testPayload(42, 4096)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				chunks := [][]byte{shared, testPayload(int64(g*1000+i), 512)}
				refs, err := s.Intern(chunks)
				if err != nil {
					errs[g] = err
					return
				}
				if _, err := s.Get(refs[0]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := s.Stats()
	if st.DedupHits != 8*20-1 {
		t.Fatalf("dedup hits %d, want %d", st.DedupHits, 8*20-1)
	}
}

func TestIndexEncodeDecodeRoundTrip(t *testing.T) {
	entries := map[ID]entry{}
	var ids []ID
	for i := 0; i < 50; i++ {
		id := IDOf([]byte(fmt.Sprintf("block-%d", i)))
		entries[id] = entry{off: int64(i) << 30, pack: uint32(i % 3), len: uint32(i * 7), crc: uint32(i * 13)}
		ids = append(ids, id)
	}
	sortIDs(ids)
	b, err := encodeIndex(formatVersion, 99, logPos{pack: 3, off: 1 << 33}, ids, entries)
	if err != nil {
		t.Fatalf("encodeIndex: %v", err)
	}
	gen, mark, got, err := DecodeIndex(b)
	if err != nil {
		t.Fatalf("DecodeIndex: %v", err)
	}
	if gen != 99 || mark != (logPos{pack: 3, off: 1 << 33}) || len(got) != len(entries) {
		t.Fatalf("gen %d mark %+v entries %d", gen, mark, len(got))
	}
	for id, e := range entries {
		if got[id] != e {
			t.Fatalf("entry %s: %+v vs %+v", id, got[id], e)
		}
	}
}

// TestIndexDecodeTruncationEveryBoundary truncates a valid snapshot at
// every byte offset: no truncation may decode successfully, and every
// failure must be typed.
func TestIndexDecodeTruncationEveryBoundary(t *testing.T) {
	entries := map[ID]entry{}
	var ids []ID
	for i := 0; i < 5; i++ {
		id := IDOf([]byte(fmt.Sprintf("t-%d", i)))
		entries[id] = entry{len: 100, crc: uint32(i)}
		ids = append(ids, id)
	}
	sortIDs(ids)
	b, err := encodeIndex(formatVersion, 7, logPos{pack: 1, off: 9}, ids, entries)
	if err != nil {
		t.Fatalf("encodeIndex: %v", err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, err := DecodeIndex(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(b))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// TestIndexDecodeBitFlips flips each byte of a small snapshot; decode
// must fail (CRC) and never panic.
func TestIndexDecodeBitFlips(t *testing.T) {
	id := IDOf([]byte("flip"))
	b, err := encodeIndex(formatVersion, 1, logPos{pack: 1, off: 44}, []ID{id}, map[ID]entry{id: {pack: 1, len: 8, crc: 9}})
	if err != nil {
		t.Fatalf("encodeIndex: %v", err)
	}
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xff
		if _, _, _, err := DecodeIndex(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", i)
		}
	}
}

// dirImage returns the contents of every file in dir but the owner
// lock, by name.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := map[string][]byte{}
	for _, e := range mustReadDir(t, dir) {
		if e.Name() == lockFileName {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = b
	}
	return img
}

// refusesOldLayout opens dir writable and requires ErrOldLayout, with
// every file in dir — a stale GC temp included — left as it was and
// none added but the owner lock.
func refusesOldLayout(t *testing.T, dir string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, indexFileName+recframe.TmpSuffix), []byte("staged"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	if s, err := New(dir); !errors.Is(err, ErrOldLayout) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("open: %v, want ErrOldLayout", err)
	}
	after := dirImage(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the refused open left %d files, want %d", len(after), len(before))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("the refused open changed %s", name)
		}
	}
}

// TestCountedPackRefused: a pack written by the builds that counted
// references — ref and release records among the blocks, its last frame
// committed by a ref record — is refused typed, and nothing in the
// directory is written: not the frame a ref record commits, which a
// store that did not recognise it would cut off as a torn tail.
func TestCountedPackRefused(t *testing.T) {
	a, b, c := []byte("block a"), bytes.Repeat([]byte{0xB}, 300), testPayload(3, 100)
	ia, ib, ic := IDOf(a), IDOf(b), IDOf(c)
	img := appendRec(nil, recBlock, false, []ID{ia}, a)
	img = appendRec(img, recBlock, true, []ID{ib}, b)
	img = appendRec(img, recRef, false, []ID{ia, ib}, nil)
	img = appendRec(img, recRelease, false, []ID{ia}, nil)
	img = appendRec(img, recBlock, true, []ID{ic}, c)
	img = appendRec(img, recRef, false, []ID{ia}, nil)
	dir := t.TempDir()
	if err := os.WriteFile((&Store{dir: dir}).packPath(1), img, 0o644); err != nil {
		t.Fatal(err)
	}
	refusesOldLayout(t, dir)
}

// encodeCountedIndex is encodeIndex as the builds that counted
// references wrote it: version 2, a refcount after each entry's crc.
func encodeCountedIndex(gen uint64, mark logPos, ids []ID, entries map[ID]entry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, indexMagic)
	buf = append(buf, countedVersion)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, mark.pack)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(mark.off))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		e := entries[id]
		buf = append(buf, id[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, e.pack)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.off))
		buf = binary.LittleEndian.AppendUint32(buf, e.len)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(1+i))
	}
	buf = binary.LittleEndian.AppendUint32(buf, indexFooterMagic)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestCountedIndexRefused: a version 2 snapshot is refused typed, by
// DecodeIndex and by an open, which writes nothing.
func TestCountedIndexRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keep, drop := testPayload(1, 4096), testPayload(2, 100)
	if _, err := s.Intern([][]byte{keep, drop}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	ids := []ID{IDOf(keep), IDOf(drop)}
	sortIDs(ids)
	old := encodeCountedIndex(4, logPos{pack: s.active, off: s.log.Size()}, ids, s.entries)
	s.mu.Unlock()
	s.Close()
	if _, _, _, err := DecodeIndex(old); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("decoding a version 2 snapshot: %v, want ErrOldLayout", err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFileName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	refusesOldLayout(t, dir)
}

// TestUnknownIndexVersionRefused: a snapshot of a version this build
// does not know — one above its own — is refused typed, by DecodeIndex
// and by an open, which writes nothing.
func TestUnknownIndexVersionRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	b := testPayload(1, 4096)
	if _, err := s.Intern([][]byte{b}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	snap, err := encodeIndex(formatVersion, 4, logPos{pack: s.active, off: s.log.Size()}, []ID{IDOf(b)}, s.entries)
	s.mu.Unlock()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap[4] = formatVersion + 1
	binary.LittleEndian.PutUint32(snap[len(snap)-4:], crc32.Checksum(snap[:len(snap)-4], castagnoli))
	if _, _, _, err := DecodeIndex(snap); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("decoding a version %d snapshot: %v, want ErrOldLayout", formatVersion+1, err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFileName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	refusesOldLayout(t, dir)
}

func TestIDStability(t *testing.T) {
	// The block address of a payload is a format constant: if this
	// value ever changes, every existing store becomes unreadable.
	got := IDOf([]byte("gpuckpt block address stability probe")).String()
	const want = "08286ea6f9d895660b677649839512db"
	if got != want {
		t.Fatalf("IDOf drifted: %s, want %s", got, want)
	}
}
