package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// refChain is the 12-diff reference chain of the crash tests. Every
// diff is a full image, so any span of it restores on its own, and is
// long enough to split into several blocks of the test block store.
func refChain() []*Diff {
	c := make([]*Diff, 12)
	for ck := range c {
		c[ck] = randomDiff(ck, 7000+int64(ck), 200)
	}
	return c
}

// lineageEnv is one lineage directory under a root, with or without
// the shared block store beside it — opened and reopened the way a
// process restart would.
type lineageEnv struct {
	root   string
	blocks bool
}

func (e lineageEnv) dir() string { return filepath.Join(e.root, "lin") }

func (e lineageEnv) open(t *testing.T) (*FileStore, *blockstore.Store) {
	t.Helper()
	var bs *blockstore.Store
	if e.blocks {
		var err error
		bs, err = blockstore.Open(filepath.Join(e.root, blockstore.DirName), blockstore.Options{ChunkSize: 64})
		if err != nil {
			t.Fatalf("block store: %v", err)
		}
	}
	fs, err := NewFileStoreWith(e.dir(), bs)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return fs, bs
}

func closeEnv(fs *FileStore, bs *blockstore.Store) {
	fs.Close()
	if bs != nil {
		bs.Close()
	}
}

// storeState is everything a caller can observe of a lineage: its
// range, the state of every id it has held, and the served bytes of
// every restorable diff ("" for one that fails typed).
type storeState struct {
	Base, Len int
	States    []recState
	Diffs     []string
}

func snapshot(t *testing.T, fs *FileStore) storeState {
	t.Helper()
	st := storeState{Base: fs.Base()}
	st.Len = fs.Len()
	fs.mu.Lock()
	for _, r := range fs.recs {
		st.States = append(st.States, r.state)
	}
	fs.mu.Unlock()
	for ck := st.Base; ck < st.Len; ck++ {
		b, err := fs.DiffBytes(ck)
		var ce *CorruptError
		switch {
		case err == nil && st.States[ck-st.Base] == recLive:
		case errors.As(err, &ce) && ce.Ckpt == ck && st.States[ck-st.Base] == recDamaged:
		default:
			t.Fatalf("diff %d of [%d,%d) in state %d read back as: %v", ck, st.Base, st.Len, st.States[ck-st.Base], err)
		}
		st.Diffs = append(st.Diffs, string(b))
	}
	return st
}

// crashStep is one operation of the crash script.
type crashStep struct {
	name string
	run  func(fs *FileStore) error
}

// crashScript drives the reference chain through every mutation the
// store has: Append, AppendBatch, InstallSpan as a forward-base resync
// (the span starts past everything stored) and as a compaction, and
// ReinstallDiff.
func crashScript(c []*Diff) []crashStep {
	batch := func(ds ...*Diff) func(*FileStore) error {
		return func(fs *FileStore) error { _, err := fs.AppendBatch(ds); return err }
	}
	return []crashStep{
		{"Append 0", func(fs *FileStore) error { return fs.Append(c[0]) }},
		{"Append 1", func(fs *FileStore) error { return fs.Append(c[1]) }},
		{"AppendBatch 2-3", batch(c[2], c[3])},
		{"InstallSpan [5,7) past the end", func(fs *FileStore) error { return fs.InstallSpan(5, c[5:7]) }},
		{"Append 7", func(fs *FileStore) error { return fs.Append(c[7]) }},
		{"AppendBatch 8-9", batch(c[8], c[9])},
		{"ReinstallDiff 8", func(fs *FileStore) error { return fs.ReinstallDiff(c[8]) }},
		{"InstallSpan [6,10) compaction", func(fs *FileStore) error { return fs.InstallSpan(6, c[6:10]) }},
		{"AppendBatch 10-11", batch(c[10], c[11])},
	}
}

// The hook seams a crash can be injected at.
var crashSeams = []string{"write", "sync", "before-rename", "after-rename"}

// crashHooks returns hooks that let the first ordinal-1 occurrences of
// seam pass and simulate a crash at the next; fired reports how often
// the seam was reached. A write crashes mid-stream: half of the first
// write goes through, the way a dying process tears a frame.
func crashHooks(seam string, ordinal int) (h *recframe.Hooks, fired *int) {
	fired = new(int)
	hit := func(s string) bool {
		if s != seam {
			return false
		}
		*fired++
		return *fired == ordinal
	}
	return &recframe.Hooks{
		WrapWrite: func(_ string, w io.Writer) io.Writer {
			if hit("write") {
				return &tearingWriter{w: w}
			}
			return w
		},
		Seam: func(point, _ string) error {
			if hit(point) {
				return fmt.Errorf("%s #%d: %w", point, ordinal, ErrSimulatedCrash)
			}
			return nil
		},
	}, fired
}

// tearingWriter passes half of its first write through and dies.
type tearingWriter struct{ w io.Writer }

func (tw *tearingWriter) Write(p []byte) (int, error) {
	n, _ := tw.w.Write(p[:len(p)/2])
	return n, ErrSimulatedCrash
}

// TestCrashPoints enumerates a simulated crash at EVERY occurrence of
// EVERY write-side hook seam while the crash script runs, with and
// without a block store. After each crash the directory must reopen —
// twice, to the same state — to exactly the state before the
// interrupted step or exactly the state after it: every acked diff
// serves its bytes, nothing that was never attempted exists, no hole
// appears that the script did not make. With a block store a GC pass
// marking from the lineage after the crash must not take a block a
// stored diff still needs, and the recovered store must accept the next
// write.
func TestCrashPoints(t *testing.T) {
	chain := refChain()
	steps := crashScript(chain)
	var counted []int
	for _, blocks := range []bool{false, true} {
		// want[i] is the state after the first i steps, fault-free.
		clean := lineageEnv{root: t.TempDir(), blocks: blocks}
		fs, bs := clean.open(t)
		want := []storeState{snapshot(t, fs)}
		for _, st := range steps {
			if err := st.run(fs); err != nil {
				t.Fatalf("fault-free %s: %v", st.name, err)
			}
			want = append(want, snapshot(t, fs))
		}
		closeEnv(fs, bs)

		points := 0
		for _, seam := range crashSeams {
			for ordinal := 1; ; ordinal++ {
				env := lineageEnv{root: t.TempDir(), blocks: blocks}
				fs, bs := env.open(t)
				hooks, fired := crashHooks(seam, ordinal)
				fs.SetHooks(hooks)
				if bs != nil {
					bs.SetHooks(hooks) // a dead process is dead in both
				}
				crashed := -1
				for i, st := range steps {
					if err := st.run(fs); err != nil {
						if !errors.Is(err, ErrSimulatedCrash) {
							t.Fatalf("%s #%d: %s failed without crashing: %v", seam, ordinal, st.name, err)
						}
						crashed = i
						break
					}
				}
				if crashed >= 0 {
					// The crashed process is gone: every later write
					// must be refused, not applied to the debris.
					if err := fs.ReinstallDiff(chain[fs.Base()]); !errors.Is(err, ErrSimulatedCrash) {
						t.Fatalf("%s #%d: store kept writing after the crash: %v", seam, ordinal, err)
					}
				}
				closeEnv(fs, bs)
				if crashed < 0 {
					if *fired >= ordinal {
						t.Fatalf("%s #%d fired but no step crashed", seam, ordinal)
					}
					break // every occurrence of this seam has been crashed at
				}
				label := fmt.Sprintf("blocks=%v crash at %s #%d (%s)", blocks, seam, ordinal, steps[crashed].name)
				points++

				fs, bs = env.open(t)
				got := snapshot(t, fs)
				if !reflect.DeepEqual(got, want[crashed]) && !reflect.DeepEqual(got, want[crashed+1]) {
					t.Fatalf("%s: reopened to [%d,%d) states %v — neither the state before the step ([%d,%d) states %v) nor after it ([%d,%d) states %v)",
						label, got.Base, got.Len, got.States,
						want[crashed].Base, want[crashed].Len, want[crashed].States,
						want[crashed+1].Base, want[crashed+1].Len, want[crashed+1].States)
				}
				closeEnv(fs, bs)

				fs, bs = env.open(t)
				if again := snapshot(t, fs); !reflect.DeepEqual(again, got) {
					t.Fatalf("%s: second reopen changed the state", label)
				}
				if bs != nil {
					if _, err := bs.GC(markStores(fs)); err != nil {
						t.Fatalf("%s: gc: %v", label, err)
					}
					if afterGC := snapshot(t, fs); !reflect.DeepEqual(afterGC, got) {
						t.Fatalf("%s: a GC after the crash took blocks a stored diff needs", label)
					}
				}
				// The first write after the crash clears the debris and
				// lands on clean ground.
				next := min(got.Len, len(chain)-1)
				if err := fs.ReinstallDiff(chain[next]); err != nil {
					t.Fatalf("%s: write after recovery: %v", label, err)
				}
				closeEnv(fs, bs)
				fs, bs = env.open(t)
				if b, err := fs.DiffBytes(next); err != nil || !bytes.Equal(b, encodeDiff(t, chain[next])) {
					t.Fatalf("%s: diff %d written after recovery reads back wrong: %v", label, next, err)
				}
				for _, e := range mustReadDir(t, env.dir()) {
					if name := e.Name(); name != ManifestFileName && name != filepath.Base(fs.seg.Name()) {
						t.Fatalf("%s: debris %s survived the first write after recovery", label, name)
					}
				}
				closeEnv(fs, bs)
			}
		}
		t.Logf("blocks=%v: %d crash points recovered", blocks, points)
		counted = append(counted, points)
	}
	// Every fsync is a crash point — the lineage's directory fsyncs, and
	// with a block store every seam of the Intern under a lineage call.
	if counted[0] < 26 || counted[1] <= counted[0] {
		t.Fatalf("%d crash points without a block store, %d with one: want at least 26, and more with one", counted[0], counted[1])
	}
}

// TestInstallCrashLeaksNothing: a crash right after the manifest rename
// of a span install — the old segment's records gone, nothing else done
// — leaks no block: a GC after the reopen leaves exactly the blocks a
// crash-free install and GC leave, and the folded lineage reads back.
func TestInstallCrashLeaksNothing(t *testing.T) {
	chain := refChain()
	run := func(crash bool) blockstore.Stats {
		env := lineageEnv{root: t.TempDir(), blocks: true}
		fs, bs := env.open(t)
		if _, err := fs.AppendBatch(chain[:6]); err != nil {
			t.Fatal(err)
		}
		if crash {
			hooks, _ := crashHooks("after-rename", 1)
			fs.SetHooks(hooks)
			bs.SetHooks(hooks)
		}
		if err := fs.InstallSpan(4, chain[4:6]); crash != errors.Is(err, ErrSimulatedCrash) {
			t.Fatalf("crash %v: install: %v", crash, err)
		}
		closeEnv(fs, bs)
		fs, bs = env.open(t)
		defer closeEnv(fs, bs)
		if _, err := bs.GC(markStores(fs)); err != nil {
			t.Fatalf("crash %v: gc: %v", crash, err)
		}
		if got := snapshot(t, fs); got.Base != 4 || got.Len != 6 || got.Diffs[0] != string(encodeDiff(t, chain[4])) {
			t.Fatalf("crash %v: reopened to [%d,%d), want the folded [4,6)", crash, got.Base, got.Len)
		}
		return bs.Stats()
	}
	clean, crashed := run(false), run(true)
	if crashed.Blocks != clean.Blocks || crashed.StoredBytes != clean.StoredBytes {
		t.Fatalf("after a crash at the install's rename and a GC the store holds %d blocks (%d bytes), a crash-free run %d (%d bytes)",
			crashed.Blocks, crashed.StoredBytes, clean.Blocks, clean.StoredBytes)
	}
}

func encodeDiff(t *testing.T, d *Diff) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// buildFrames writes the chain's first six diffs as the frames
// [0] [1,2,3] [4] [5] and returns the lineage directory and, per id,
// the record extent.
func buildFrames(t *testing.T, chain []*Diff) (dir string, off, size [6]int64) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "lin")
	fs, err := NewFileStoreWith(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, frame := range [][]*Diff{chain[0:1], chain[1:4], chain[4:5], chain[5:6]} {
		if _, err := fs.AppendBatch(frame); err != nil {
			t.Fatal(err)
		}
	}
	for ck := range off {
		if _, off[ck], size[ck], err = fs.Locate(ck); err != nil {
			t.Fatal(err)
		}
	}
	return dir, off, size
}

// damagedCopy copies the one-segment lineage in dir to a fresh
// directory, passing the segment image through damage.
func damagedCopy(t *testing.T, dir string, damage func(seg []byte) []byte) string {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "lin")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, segmentName(0)), damage(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTornFinalFrame is P1 at every byte: however far a dying append
// got into its frame — here the three-diff batch [1,2,3] — the reopen
// yields exactly the state before it: no diff of the batch, no hole,
// nothing quarantined. Opening does not touch the file; the next write
// cuts the torn bytes off before appending.
func TestTornFinalFrame(t *testing.T) {
	chain := refChain()
	dir, off, size := buildFrames(t, chain)
	frameStart, frameEnd := off[1], off[3]+size[3]
	for cut := frameStart; cut < frameEnd; cut++ {
		torn := damagedCopy(t, dir, func(seg []byte) []byte { return seg[:cut] })
		fs, err := NewFileStoreWith(torn, nil)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got := snapshot(t, fs)
		if got.Base != 0 || got.Len != 1 || !reflect.DeepEqual(got.States, []recState{recLive}) {
			t.Fatalf("cut at %d (frame [%d,%d)): reopened to [%d,%d) states %v, want exactly diff 0",
				cut, frameStart, frameEnd, got.Base, got.Len, got.States)
		}
		if st, _ := os.Stat(filepath.Join(torn, segmentName(0))); st.Size() != cut {
			t.Fatalf("cut at %d: opening changed the segment to %d bytes", cut, st.Size())
		}
		if _, err := fs.AppendBatch(chain[1:3]); err != nil {
			t.Fatalf("cut at %d: append after torn tail: %v", cut, err)
		}
		fs.Close()
		fs, err = NewFileStoreWith(torn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := fs.Len(); n != 3 {
			t.Fatalf("cut at %d: len %d after re-append, want 3", cut, n)
		}
		fs.Close()
	}
}

// TestRotIsNotATornTail is P2: one flipped bit in any header field, or
// in the payload, of a record that is NOT the last — the middle of a
// batch, a frame of its own, the very first record — damages exactly
// that id: it stays in range, its reads fail with a typed
// *CorruptError, nothing after it is dropped, and reinstalling the
// diff heals it. The same flip in the LAST
// record is the one ambiguity: it cannot be told from an append that
// died mid-write, and is cut off as one.
func TestRotIsNotATornTail(t *testing.T) {
	chain := refChain()
	dir, off, size := buildFrames(t, chain)
	fields := map[string]int64{
		"magic": 0, "kind": 4, "more": 5, "reserved": 6, "id": 8, "end": 12,
		"length": 16, "payload crc": 20, "header crc": 24, "payload": recHdrSize + 40,
	}
	for _, victim := range []int{0, 2, 4} {
		for field, at := range fields {
			rotten := damagedCopy(t, dir, func(seg []byte) []byte {
				seg[off[victim]+at] ^= 0x10
				return seg
			})
			fs, err := NewFileStoreWith(rotten, nil)
			if err != nil {
				t.Fatalf("diff %d %s: %v", victim, field, err)
			}
			got := snapshot(t, fs) // checks the typed read failure
			want := []recState{recLive, recLive, recLive, recLive, recLive, recLive}
			want[victim] = recDamaged
			if got.Len != 6 || !reflect.DeepEqual(got.States, want) {
				t.Fatalf("diff %d %s: reopened to [0,%d) states %v, want damage at exactly %d",
					victim, field, got.Len, got.States, victim)
			}
			if holes := fs.DamagedIDs(); !reflect.DeepEqual(holes, []int{victim}) {
				t.Fatalf("diff %d %s: damaged ids %v", victim, field, holes)
			}
			if err := fs.ReinstallDiff(chain[victim]); err != nil {
				t.Fatalf("diff %d %s: reinstall: %v", victim, field, err)
			}
			healed := snapshot(t, fs)
			want[victim] = recLive
			if healed.Len != 6 || !reflect.DeepEqual(healed.States, want) {
				t.Fatalf("diff %d %s: [0,%d) states %v after reinstall, want six live diffs", victim, field, healed.Len, healed.States)
			}
			fs.Close()
		}
	}

	rotten := damagedCopy(t, dir, func(seg []byte) []byte {
		seg[off[5]+size[5]-1] ^= 0x10
		return seg
	})
	fs, err := NewFileStoreWith(rotten, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if got := snapshot(t, fs); got.Len != 5 || len(got.States) != 5 {
		t.Fatalf("rot in the last record: reopened to [0,%d) states %v, want the torn-tail reading [0,5)", got.Len, got.States)
	}
}

// TestRotAfterOpenIsCaughtOnRead: the index holds no payload, so rot
// that lands after the open — and after a successful read — fails the
// next read typed instead of being served from memory.
func TestRotAfterOpenIsCaughtOnRead(t *testing.T) {
	chain := refChain()
	dir, off, _ := buildFrames(t, chain)
	fs, err := NewFileStoreWith(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.SpanChecksums(0, 6); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xFF}, off[2]+recHdrSize+3); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := fs.SpanChecksums(0, 6); !errors.As(err, &ce) || ce.Ckpt != 2 {
		t.Fatalf("digest over rot that set in after a good read: %v", err)
	}
	if rep, err := fs.Scrub(); err != nil || !errors.As(rep.First, &ce) || ce.Ckpt != 2 || !reflect.DeepEqual(rep.Corrupt, []int{2}) {
		t.Fatalf("scrub over the same rot: %+v %v", rep, err)
	}
}

// TestScrubLeavesNoHoleToSplice: a scrub over rot reports it and writes
// nothing, so the lineage keeps its length, an append of a foreign diff
// at the damaged id is refused instead of being spliced in under the
// diffs stored after it, and those diffs read back unchanged.
func TestScrubLeavesNoHoleToSplice(t *testing.T) {
	chain := refChain()
	dir, off, _ := buildFrames(t, chain)
	rotten := damagedCopy(t, dir, func(seg []byte) []byte {
		seg[off[2]+recHdrSize+40] ^= 0x10
		return seg
	})
	fs, err := NewFileStoreWith(rotten, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rep, err := fs.Scrub()
	if err != nil || rep.Checked != 6 || !reflect.DeepEqual(rep.Corrupt, []int{2}) {
		t.Fatalf("scrub: %+v %v", rep, err)
	}
	if n, err := fs.AppendBatch([]*Diff{randomDiff(2, 99, 200)}); err == nil || n != 0 {
		t.Fatalf("a foreign diff 2 was appended over the scrubbed lineage: appended=%d err=%v", n, err)
	}
	if n := fs.Len(); n != 6 {
		t.Fatalf("len %d after scrub and refused append, want 6", n)
	}
	for ck := 3; ck < 6; ck++ {
		if b, err := fs.DiffBytes(ck); err != nil || !bytes.Equal(b, encodeDiff(t, chain[ck])) {
			t.Fatalf("diff %d after scrub and refused append: %v", ck, err)
		}
	}
}

// TestTombstoneReadsAsDamage: a tombstone an earlier build appended
// marks its id damaged — in range, reads failing typed — and
// ReinstallDiff heals it like any other damage.
func TestTombstoneReadsAsDamage(t *testing.T) {
	chain := refChain()
	dir, _, _ := buildFrames(t, chain)
	tomb := make([]byte, recHdrSize)
	segFormat.Put(tomb, recTombstone, false, 2, 6, 0, 0)
	old := damagedCopy(t, dir, func(seg []byte) []byte { return append(seg, tomb...) })
	fs, err := NewFileStoreWith(old, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { fs.Close() }()
	got := snapshot(t, fs) // checks the typed read failure
	want := []recState{recLive, recLive, recDamaged, recLive, recLive, recLive}
	if got.Len != 6 || !reflect.DeepEqual(got.States, want) || !reflect.DeepEqual(fs.DamagedIDs(), []int{2}) {
		t.Fatalf("tombstoned lineage opened to [0,%d) states %v, damaged %v", got.Len, got.States, fs.DamagedIDs())
	}
	if err := fs.ReinstallDiff(chain[2]); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if fs, err = NewFileStoreWith(old, nil); err != nil {
		t.Fatal(err)
	}
	if b, err := fs.DiffBytes(2); err != nil || !bytes.Equal(b, encodeDiff(t, chain[2])) || len(fs.DamagedIDs()) != 0 {
		t.Fatalf("diff 2 after the reinstall: %v, damaged %v", err, fs.DamagedIDs())
	}
}

// TestWriteBudget counts what an append costs through the hook seams:
// one fsync of the segment per frame whatever its size (the append that
// creates the segment also fsyncs the directory, once) — and nothing
// else when every block of the frame was already in the block store —
// and every container byte written to the lineage directory exactly
// once: what went through the write seam is what the segment holds.
func TestWriteBudget(t *testing.T) {
	root := t.TempDir()
	bs, stores := openShared(t, root, "lin")
	fs := stores[0]
	var syncs []string
	var written int64
	countSyncs := func(point, path string) error {
		if point == "sync" {
			syncs = append(syncs, filepath.Base(path))
		}
		return nil
	}
	fs.SetHooks(&recframe.Hooks{
		Seam: countSyncs,
		WrapWrite: func(_ string, w io.Writer) io.Writer {
			return writerFunc(func(p []byte) (int, error) {
				n, err := w.Write(p)
				written += int64(n)
				return n, err
			})
		},
	})
	if err := fs.Append(randomDiff(0, 1, 640)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"lin", segmentName(0)}; !reflect.DeepEqual(syncs, want) {
		t.Fatalf("first append fsynced %v, want %v", syncs, want)
	}
	syncs = nil
	if err := fs.Append(randomDiff(1, 2, 640)); err != nil {
		t.Fatal(err)
	}
	if want := []string{segmentName(0)}; !reflect.DeepEqual(syncs, want) {
		t.Fatalf("append fsynced %v, want %v", syncs, want)
	}
	syncs = nil
	batch := make([]*Diff, 16)
	for i := range batch {
		batch[i] = randomDiff(2+i, 100+int64(i), 640)
	}
	if n, err := fs.AppendBatch(batch); err != nil || n != 16 {
		t.Fatal(n, err)
	}
	if want := []string{segmentName(0)}; !reflect.DeepEqual(syncs, want) {
		t.Fatalf("batch of 16 fsynced %v, want %v", syncs, want)
	}
	syncs = nil
	bs.SetHooks(&recframe.Hooks{Seam: countSyncs})
	if err := fs.Append(randomDiff(18, 1, 640)); err != nil { // diff 0's bytes: every block a hit
		t.Fatal(err)
	}
	bs.SetHooks(nil)
	if want := []string{segmentName(0)}; !reflect.DeepEqual(syncs, want) {
		t.Fatalf("an append of present blocks fsynced %v, want %v", syncs, want)
	}
	for ck := 0; ck < 19; ck++ {
		if _, err := fs.DiffBytes(ck); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(root, "lin", segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if written != st.Size() || len(syncs) != 1 {
		t.Fatalf("%d bytes went through the write seam, the segment holds %d; %d fsyncs after the batch", written, st.Size(), len(syncs))
	}
	if entries := mustReadDir(t, filepath.Join(root, "lin")); len(entries) != 1 {
		t.Fatalf("lineage directory holds %v, want the segment alone", entries)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFailedAppendRollsBack: a write or fsync that fails without
// killing the process loses exactly the batch it belonged to — the
// segment is cut back, the store keeps working, and a reopen sees no
// trace of the attempt.
func TestFailedAppendRollsBack(t *testing.T) {
	chain := refChain()
	boom := errors.New("injected")
	for name, hooks := range map[string]*recframe.Hooks{
		"fsync": {Seam: func(point, _ string) error {
			if point == "sync" {
				return boom
			}
			return nil
		}},
		"write": {WrapWrite: func(_ string, w io.Writer) io.Writer {
			return writerFunc(func(p []byte) (int, error) {
				n, _ := w.Write(p[:len(p)/2])
				return n, boom
			})
		}},
	} {
		dir := filepath.Join(t.TempDir(), "lin")
		fs, err := NewFileStoreWith(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(chain[0]); err != nil {
			t.Fatal(err)
		}
		before := fs.TotalBytes()
		fs.SetHooks(hooks)
		if n, err := fs.AppendBatch(chain[1:4]); !errors.Is(err, boom) || n != 0 {
			t.Fatalf("%s: failed batch reported %d appended, err %v", name, n, err)
		}
		fs.SetHooks(nil)
		if st, _ := os.Stat(filepath.Join(dir, segmentName(0))); st.Size() != before {
			t.Fatalf("%s: segment is %d bytes after the rollback, want %d", name, st.Size(), before)
		}
		if _, err := fs.AppendBatch(chain[1:4]); err != nil {
			t.Fatalf("%s: append after a rolled-back failure: %v", name, err)
		}
		fs.Close()
		fs, err = NewFileStoreWith(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshot(t, fs); got.Len != 4 || len(got.States) != 4 {
			t.Fatalf("%s: reopened to [0,%d) states %v, want [0,4)", name, got.Len, got.States)
		}
		fs.Close()
	}
}

// TestOpenCreatesNothing: opening, and reading from, a lineage
// directory that does not exist leaves no trace; the first durable
// write creates it.
func TestOpenCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if n := fs.Len(); n != 0 {
		t.Fatalf("missing directory opened with %d diffs", n)
	}
	if _, err := fs.Load(); err == nil {
		t.Fatal("missing directory loaded")
	}
	if _, err := fs.DiffBytes(0); err == nil {
		t.Fatal("missing directory served a diff")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("read-only use created %s: %v", dir, err)
	}
	if err := fs.Append(storeDiff(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); err != nil {
		t.Fatalf("first write did not create the segment: %v", err)
	}
}

// TestOldLayoutRefused: a directory of the replaced file-per-checkpoint
// layout is refused typed by both constructors, and nothing in it is
// modified.
func TestOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "ckpt-000000.gckp")
	if err := os.WriteFile(old, []byte("a diff file of the old store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(dir); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("NewFileStore: %v, want ErrOldLayout", err)
	}
	if _, err := NewFileStoreWith(dir, nil); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("NewFileStoreWith: %v, want ErrOldLayout", err)
	}
	if entries := mustReadDir(t, dir); len(entries) != 1 {
		t.Fatalf("refused directory now holds %v", entries)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "a diff file of the old store" {
		t.Fatalf("refused directory's file changed: %q %v", b, err)
	}
}

// TestInstallSpanRefusesShortSpan: a span planned from an older Load
// must not drop what was appended since.
func TestInstallSpanRefusesShortSpan(t *testing.T) {
	chain := refChain()
	fs, err := NewFileStoreWith(filepath.Join(t.TempDir(), "lin"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.AppendBatch(chain[:6]); err != nil {
		t.Fatal(err)
	}
	if err := fs.InstallSpan(2, chain[2:5]); err == nil {
		t.Fatal("span [2,5) accepted over a store that reaches 6")
	}
	if got := snapshot(t, fs); got.Base != 0 || got.Len != 6 {
		t.Fatalf("refused span changed the store to [%d,%d)", got.Base, got.Len)
	}
}

// TestManifestNamingMissingSegmentFailsOpen: a manifest exists only once
// an InstallSpan wrote the segment it names, so a manifest without its
// segment is damage — the open fails typed and names the segment,
// instead of presenting an empty lineage at the manifest's baseline.
func TestManifestNamingMissingSegmentFailsOpen(t *testing.T) {
	chain := refChain()
	dir := filepath.Join(t.TempDir(), "lin")
	fs, err := NewFileStoreWith(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.AppendBatch(chain[:6]); err != nil {
		t.Fatal(err)
	}
	if err := fs.InstallSpan(2, chain[2:6]); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*FileStore, error){
		"NewFileStore":     func() (*FileStore, error) { return NewFileStore(dir) },
		"NewFileStoreWith": func() (*FileStore, error) { return NewFileStoreWith(dir, nil) },
	} {
		fs, err := open()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), segmentName(1)) {
			t.Fatalf("%s of a manifest without its segment: store %v, err %v; want ErrCorrupt naming %s", name, fs, err, segmentName(1))
		}
	}
	if entries := mustReadDir(t, dir); len(entries) != 1 || entries[0].Name() != ManifestFileName {
		t.Fatalf("the refused open changed the directory to %v", entries)
	}
}

// TestInstallSpanMakesTheSegmentDurableFirst closes the window that
// could produce a manifest without its segment: the new segment's
// directory entry and its bytes are fsynced before the rename that
// names it — one directory fsync per install on top of the segment's,
// the staged manifest's and the rename's.
func TestInstallSpanMakesTheSegmentDurableFirst(t *testing.T) {
	chain := refChain()
	fs, err := NewFileStoreWith(filepath.Join(t.TempDir(), "lin"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.AppendBatch(chain[:6]); err != nil {
		t.Fatal(err)
	}
	var seams []string
	fs.SetHooks(&recframe.Hooks{Seam: func(point, path string) error {
		seams = append(seams, point+" "+filepath.Base(path))
		return nil
	}})
	if err := fs.InstallSpan(2, chain[2:6]); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sync lin", "sync " + segmentName(1),
		"sync " + ManifestFileName + recframe.TmpSuffix, "before-rename " + ManifestFileName,
		"after-rename " + ManifestFileName, "sync lin",
	}
	if !reflect.DeepEqual(seams, want) {
		t.Fatalf("InstallSpan passed %v, want %v", seams, want)
	}
}
