package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// testRoll is the pack roll size of the crash tests: small enough that
// the reference history seals a pack after its first intern.
const testRoll = 1500

// openRoll opens dir with the test roll size.
func openRoll(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := New(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	s.rollSize = testRoll
	return s
}

// shape is how the blocks of the reference history are made. Raw blocks
// are random bytes, which a store keeps as they are. Packed ones
// alternate small counters, which it packs, with random blocks, so that
// frames hold both kinds of record. roll is a pack roll size at which
// the history's first intern seals the first pack.
type shape struct {
	name    string
	payload func(seed int64, n int) []byte
	roll    int64
}

var shapes = []shape{{"raw", testPayload, testRoll}, {"packed", mixedPayload, 1000}}

// open opens dir with the shape's roll size.
func (sh shape) open(t *testing.T, dir string) *Store {
	t.Helper()
	s := openRoll(t, dir)
	s.rollSize = sh.roll
	return s
}

// blocks returns the payloads of the reference history: A0..A3 fill
// and seal the first pack, B0, B1 and C0 land after it.
func (sh shape) blocks() (a, b [][]byte, c []byte) {
	for i := 0; i < 4; i++ {
		a = append(a, sh.payload(int64(100+i), 400))
	}
	return a, [][]byte{sh.payload(200, 400), sh.payload(201, 300)}, sh.payload(300, 64)
}

// all returns every block of the reference history.
func (sh shape) all() [][]byte {
	a, b, c := sh.blocks()
	return append(append(a, b...), c)
}

func refsOf(ps ...[]byte) []Ref {
	refs := make([]Ref, len(ps))
	for i, p := range ps {
		refs[i] = Ref{ID: IDOf(p), Len: uint32(len(p))}
	}
	return refs
}

// crashStep is one operation of the reference history, and the blocks
// the history's records reference once it has run: what a GC's mark
// finds live.
type crashStep struct {
	name string
	run  func(s *Store) error
	refs [][]byte
}

// crashHistory drives a store through every mutation it has: an intern
// of all-new blocks (which seals the first pack), an intern mixing new
// blocks, a hit and an in-batch duplicate, a GC that only folds, a GC
// whose mark leaves the sealed pack one quarter live — which relocates
// its one live block, packed if the shape packs A0, and unlinks it —
// and an intern after that.
func crashHistory(sh shape) []crashStep {
	a, b, c := sh.blocks()
	intern := func(ps ...[]byte) func(*Store) error {
		return func(s *Store) error { _, err := s.Intern(ps); return err }
	}
	gc := func(ps ...[]byte) func(*Store) error {
		return func(s *Store) error { _, err := s.GC(markOf(ps...)); return err }
	}
	all := append(append([][]byte(nil), a...), b...)
	kept := [][]byte{a[0], b[0], b[1]}
	return []crashStep{
		{"intern A0-A3, all new", intern(a...), a},
		{"intern B0 A1 B1 B0: new, hit, in-batch duplicate", intern(b[0], a[1], b[1], b[0]), all},
		{"GC that folds", gc(all...), all},
		{"GC that relocates the sealed pack", gc(kept...), kept},
		{"intern C0 A0 after GC", intern(c, a[0]), append(kept, c)},
	}
}

// storeState is everything a caller can observe of a store over the
// history's blocks: the totals and which blocks it holds. Snapshotting
// it also checks that every held block reads back byte-exact and every
// other one fails typed.
type storeState struct {
	Blocks int
	Bytes  int64
	Held   map[ID]bool
}

func snapshot(t *testing.T, s *Store, sh shape) storeState {
	t.Helper()
	st := storeState{Held: map[ID]bool{}}
	stats := s.Stats()
	st.Blocks, st.Bytes = stats.Blocks, stats.StoredBytes
	for _, p := range sh.all() {
		id := IDOf(p)
		held := held(s, id)
		got, err := s.Get(Ref{ID: id, Len: uint32(len(p))})
		switch {
		case held && err == nil && bytes.Equal(got, p):
		case !held && errors.Is(err, ErrNotFound):
		default:
			t.Fatalf("block %s (held %v) read back as %d bytes, %v", id, held, len(got), err)
		}
		st.Held[id] = held
	}
	recountStats(t, s)
	return st
}

// recountStats checks the running totals against a full recount.
func recountStats(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	for _, e := range s.entries {
		bytes += int64(e.stored)
	}
	if s.blocks != len(s.entries) || s.bytes != bytes {
		t.Fatalf("running totals %d blocks %d bytes, recount %d blocks %d bytes", s.blocks, s.bytes, len(s.entries), bytes)
	}
}

// The hook seams a crash can be injected at.
var crashSeams = []string{"write", "sync", "gc-before", "before-rename", "after-rename", "gc-after", "unlink"}

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

// failAt returns hooks that fail every occurrence of one seam with err.
func failAt(seam string, err error) *recframe.Hooks {
	return &recframe.Hooks{Seam: func(point, _ string) error {
		if point == seam {
			return err
		}
		return nil
	}}
}

// tearingWriter passes half of its first write through and dies.
type tearingWriter struct{ w io.Writer }

func (tw *tearingWriter) Write(p []byte) (int, error) {
	n, _ := tw.w.Write(p[:len(p)/2])
	return n, ErrSimulatedCrash
}

// TestCrashPoints enumerates a simulated crash at EVERY occurrence of
// EVERY write-side hook seam while the reference history runs. After
// each crash the directory must reopen — twice, to the same state — to
// exactly the state before the interrupted step or exactly the state
// after it: every acked block reads back byte-exact and no batch is
// half-applied. A GC after the crash, marking what the history
// references once the interrupted step has run, must keep exactly the
// referenced blocks the store holds and reclaim every other one, and
// the recovered store must accept the next write and keep it across one
// more reopen. It runs over both shapes of block: with packed ones,
// every frame that packs a block also starts with a version record.
func TestCrashPoints(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { crashPoints(t, sh) })
	}
}

func crashPoints(t *testing.T, sh shape) {
	steps := crashHistory(sh)
	// want[i] is the state after the first i steps, fault-free.
	clean := t.TempDir()
	s := sh.open(t, clean)
	want := []storeState{snapshot(t, s, sh)}
	for _, st := range steps {
		if err := st.run(s); err != nil {
			t.Fatalf("fault-free %s: %v", st.name, err)
		}
		want = append(want, snapshot(t, s, sh))
	}
	if _, err := os.Stat(s.packPath(1)); !os.IsNotExist(err) {
		t.Fatalf("the history did not relocate and unlink the first pack: %v", err)
	}
	a, _, _ := sh.blocks()
	s.mu.Lock()
	moved := s.entries[IDOf(a[0])]
	s.mu.Unlock()
	if moved.packed() != (sh.name == "packed") {
		t.Fatalf("A0, moved to pack %d, is stored packed %v", moved.pack, moved.packed())
	}
	s.Close()
	s = sh.open(t, clean)
	if got := snapshot(t, s, sh); !reflect.DeepEqual(got, want[len(steps)]) {
		t.Fatalf("fault-free reopen changed the state: %+v, want %+v", got, want[len(steps)])
	}
	s.Close()

	points := 0
	for _, seam := range crashSeams {
		for ordinal := 1; ; ordinal++ {
			dir := t.TempDir()
			s := sh.open(t, dir)
			hooks, fired := crashHooks(seam, ordinal)
			s.SetHooks(hooks)
			crashed := -1
			for i, st := range steps {
				if err := st.run(s); err != nil {
					if !errors.Is(err, ErrSimulatedCrash) {
						t.Fatalf("%s #%d: %s failed without crashing: %v", seam, ordinal, st.name, err)
					}
					crashed = i
					break
				}
			}
			if crashed >= 0 {
				// The crashed process is gone: every later call must
				// be refused, not applied to the debris.
				if _, err := s.Intern([][]byte{testPayload(1, 8)}); !errors.Is(err, ErrClosed) {
					t.Fatalf("%s #%d: store kept writing after the crash: %v", seam, ordinal, err)
				}
			}
			s.Close()
			if crashed < 0 {
				if *fired >= ordinal {
					t.Fatalf("%s #%d fired but no step crashed", seam, ordinal)
				}
				break // every occurrence of this seam has been crashed at
			}
			label := fmt.Sprintf("crash at %s #%d (%s)", seam, ordinal, steps[crashed].name)
			points++

			s = sh.open(t, dir)
			got := snapshot(t, s, sh)
			if !reflect.DeepEqual(got, want[crashed]) && !reflect.DeepEqual(got, want[crashed+1]) {
				t.Fatalf("%s: reopened to %+v — neither the state before the step (%+v) nor after it (%+v)",
					label, got, want[crashed], want[crashed+1])
			}
			s.Close()

			s = sh.open(t, dir)
			if again := snapshot(t, s, sh); !reflect.DeepEqual(again, got) {
				t.Fatalf("%s: second reopen changed the state to %+v from %+v", label, again, got)
			}
			if _, err := s.GC(markOf(steps[crashed].refs...)); err != nil {
				t.Fatalf("%s: gc: %v", label, err)
			}
			afterGC := snapshot(t, s, sh)
			referenced := map[ID]bool{}
			for _, p := range steps[crashed].refs {
				referenced[IDOf(p)] = true
			}
			for id, held := range got.Held {
				if afterGC.Held[id] != (held && referenced[id]) {
					t.Fatalf("%s: a GC after the crash left block %s (held %v, referenced %v) held: %v", label, id, held, referenced[id], afterGC.Held[id])
				}
			}
			// The first write after the crash lands on clean ground.
			fresh := testPayload(int64(9000+points), 100)
			refs, err := s.Intern([][]byte{fresh})
			if err != nil {
				t.Fatalf("%s: write after recovery: %v", label, err)
			}
			s.Close()
			s = sh.open(t, dir)
			if p, err := s.Get(refs[0]); err != nil || !bytes.Equal(p, fresh) {
				t.Fatalf("%s: block written after recovery reads back wrong: %v", label, err)
			}
			if again := snapshot(t, s, sh); !reflect.DeepEqual(again.Held, afterGC.Held) {
				t.Fatalf("%s: the write after recovery disturbed the history's blocks", label)
			}
			for _, e := range mustReadDir(t, dir) {
				if filepath.Ext(e.Name()) == recframe.TmpSuffix {
					t.Fatalf("%s: staged snapshot %s survived recovery", label, e.Name())
				}
			}
			s.Close()
		}
	}
	t.Logf("%d crash points recovered", points)
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// buildFrames interns, into a fresh store under a new directory, the
// frames [A0] [A1 A2 A3] [B0] [B1] of blocks of shape sh, all in one
// pack — the second batch also hits A0, which writes nothing — closes
// the store and returns the directory, the blocks and the extent of
// each block's record.
func buildFrames(t *testing.T, sh shape) (dir string, blocks [][]byte, off, size []int64) {
	t.Helper()
	dir = t.TempDir()
	a, b, _ := sh.blocks()
	blocks = append(a, b...)
	s := mustOpen(t, dir)
	for _, frame := range [][][]byte{{a[0]}, {a[1], a[2], a[3], a[0]}, {b[0]}, {b[1]}} {
		if _, err := s.Intern(frame); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range blocks {
		_, o, n, err := s.Locate(IDOf(p))
		if err != nil {
			t.Fatal(err)
		}
		off, size = append(off, o), append(size, n)
	}
	s.Close()
	return dir, blocks, off, size
}

// damagedCopy copies the one-pack store in dir to a fresh directory,
// passing the pack image through damage.
func damagedCopy(t *testing.T, dir string, damage func(pack []byte) []byte) string {
	t.Helper()
	name := filepath.Base((&Store{}).packPath(1))
	pack, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := os.WriteFile(filepath.Join(out, name), damage(pack), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTornFinalFrame is B1 at every byte: however far a dying Intern
// got into its frame — here three new blocks — the reopen yields
// exactly the state before it: none of the frame's blocks. A read-only
// open leaves the torn
// bytes alone; a writable one cuts them off, so what is interned next
// survives the reopen after (the ports of the torn-journal-tail and
// orphan-sweep tests of the layout this one replaced). It runs over
// both shapes of block.
func TestTornFinalFrame(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { tornFinalFrame(t, sh) })
	}
}

func tornFinalFrame(t *testing.T, sh shape) {
	dir, blocks, off, size := buildFrames(t, sh)
	frameStart := off[1]
	frameEnd := off[3] + size[3]
	check := func(s *Store, cut int64) {
		t.Helper()
		if !held(s, IDOf(blocks[0])) {
			t.Fatalf("cut at %d: A0, interned before the torn frame, is gone", cut)
		}
		for _, p := range blocks[1:] {
			if id := IDOf(p); held(s, id) {
				t.Fatalf("cut at %d: block %s of the torn frame (or after it) survived", cut, id)
			}
		}
		if st := s.Stats(); st.Blocks != 1 || st.StoredBytes != size[0]-blockRecOverhead {
			t.Fatalf("cut at %d: stats %+v, want exactly A0", cut, st)
		}
	}
	for cut := frameStart; cut < frameEnd; cut++ {
		torn := damagedCopy(t, dir, func(pack []byte) []byte { return pack[:cut] })
		ro, err := Open(torn, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("cut at %d: read-only open: %v", cut, err)
		}
		check(ro, cut)
		ro.Close()
		if st, _ := os.Stat(ro.packPath(1)); st.Size() != cut {
			t.Fatalf("cut at %d: a read-only open changed the pack to %d bytes", cut, st.Size())
		}

		s := mustOpen(t, torn)
		check(s, cut)
		if st, _ := os.Stat(s.packPath(1)); st.Size() != frameStart {
			t.Fatalf("cut at %d: pack is %d bytes after a writable open, want the torn frame cut off at %d", cut, st.Size(), frameStart)
		}
		refs, err := s.Intern(blocks[1:3])
		if err != nil {
			t.Fatalf("cut at %d: intern after torn tail: %v", cut, err)
		}
		s.Close()
		s = mustOpen(t, torn)
		for i, r := range refs {
			if p, err := s.Get(r); err != nil || !bytes.Equal(p, blocks[1+i]) {
				t.Fatalf("cut at %d: block interned after the torn tail: %v", cut, err)
			}
		}
		s.Close()
	}
}

// TestRotIsNotATornTail is B2: one flipped bit in any header field, in
// the ID or in the payload of a block record that is NOT in the last
// frame — a frame of its own, the middle of a batch — damages exactly
// that block: nothing after it is dropped, every other block reads back,
// and Get of the damaged one fails typed (ErrNotFound). Interning the
// block again heals it. The rot does not stop GC: once nothing live is
// in the rotten region, a GC that relocates the sealed pack around it
// unlinks the pack, rot and all, and every live block still reads. The
// same flip in the LAST frame is the one ambiguity: it cannot be told
// from an append that died mid-write, and is cut off as one. It runs
// over both shapes of block; with packed ones, what GC moves out of the
// rotten pack is a packed record, copied as it is.
func TestRotIsNotATornTail(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { rotIsNotATornTail(t, sh) })
	}
}

func rotIsNotATornTail(t *testing.T, sh shape) {
	dir, blocks, off, size := buildFrames(t, sh)
	fields := map[string]int64{
		"magic": 0, "kind": 4, "more": 5, "reserved": 6, "A": 8, "B": 12,
		"length": 16, "payload crc": 20, "header crc": 24, "id": recframe.HdrSize + 3, "payload": blockRecOverhead + 40,
	}
	for _, victim := range []int{0, 2, 4} {
		for field, at := range fields {
			rotten := damagedCopy(t, dir, func(pack []byte) []byte {
				pack[off[victim]+at] ^= 0x10
				return pack
			})
			s := openRoll(t, rotten)
			s.rollSize = off[5] + size[5] // the next intern seals the pack
			readsBack := func(when string, want func(i int) bool) {
				t.Helper()
				for i, p := range blocks {
					got, err := s.Get(Ref{ID: IDOf(p), Len: uint32(len(p))})
					switch {
					case want(i):
						if err != nil || !bytes.Equal(got, p) {
							t.Fatalf("block %d %s rotten, %s: block %d reads %v, want intact", victim, field, when, i, err)
						}
					case !errors.Is(err, ErrNotFound):
						t.Fatalf("block %d %s rotten, %s: block %d reads %v, want ErrNotFound", victim, field, when, i, err)
					}
				}
				recountStats(t, s)
			}
			readsBack("after the open", func(i int) bool { return i != victim })
			if st, _ := os.Stat(s.packPath(1)); st.Size() != off[5]+size[5] {
				t.Fatalf("block %d %s rotten: the open cut the pack to %d bytes", victim, field, st.Size())
			}
			// What the rotten region held is dead: only the last block is
			// live, so the pack — sealed by this Intern — is relocated
			// around the rot and unlinked.
			if _, err := s.Intern([][]byte{testPayload(400, 64)}); err != nil {
				t.Fatal(err)
			}
			gc, err := s.GC(markOf(blocks[5]))
			if err != nil || gc.Live != 1 || gc.Reclaimed != len(blocks)-1 {
				t.Fatalf("block %d %s rotten: GC returned %+v, %v; want 1 live and %d reclaimed", victim, field, gc, err, len(blocks)-1)
			}
			if _, err := os.Stat(s.packPath(1)); !os.IsNotExist(err) {
				t.Fatalf("block %d %s rotten: the rotten pack survived a GC that found it one block live: %v", victim, field, err)
			}
			readsBack("after GC", func(i int) bool { return i == 5 })
			refs, err := s.Intern(blocks[victim : victim+1])
			if err != nil {
				t.Fatal(err)
			}
			if got, err := s.Get(refs[0]); err != nil || !bytes.Equal(got, blocks[victim]) {
				t.Fatalf("block %d %s rotten: not healed by interning it again: %v", victim, field, err)
			}
			s.Close()
		}
	}

	rotten := damagedCopy(t, dir, func(pack []byte) []byte {
		pack[off[5]+size[5]-1] ^= 0x10
		return pack
	})
	s := mustOpen(t, rotten)
	if held(s, IDOf(blocks[5])) || !held(s, IDOf(blocks[4])) {
		t.Fatal("rot in the last frame: want the torn-tail reading, the last block gone and the one before it kept")
	}
	if st, _ := os.Stat(s.packPath(1)); st.Size() != off[5] {
		t.Fatalf("rot in the last frame: pack is %d bytes, want it cut at %d", st.Size(), off[5])
	}
}

// countingHooks counts fsyncs by file name and the bytes that reach a
// pack through the write seam.
type countingHooks struct {
	syncs   []string
	written int64
}

func (c *countingHooks) hooks() *recframe.Hooks {
	return &recframe.Hooks{
		Seam: func(point, path string) error {
			if point == "sync" {
				c.syncs = append(c.syncs, filepath.Base(path))
			}
			return nil
		},
		WrapWrite: func(_ string, w io.Writer) io.Writer {
			return writerFunc(func(p []byte) (int, error) {
				n, err := w.Write(p)
				c.written += int64(n)
				return n, err
			})
		},
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFsyncBudget counts what the store's calls cost through the hook
// seams: opening a fresh directory syncs nothing and creates no pack;
// an Intern is exactly one fsync of the pack whether it adds 1, 16 or
// 4096 blocks (the call that creates a pack also fsyncs the directory,
// once); an Intern of blocks that are all present is none, and writes
// nothing; and every byte goes through the write seam exactly once —
// what was written is what the pack holds.
func TestFsyncBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "_blocks")
	var c countingHooks
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetHooks(c.hooks())
	if entries := mustReadDir(t, dir); len(entries) != 1 || entries[0].Name() != lockFileName {
		t.Fatalf("a fresh open left %v in the directory, want the lock file alone", entries)
	}
	pack, base := filepath.Base(s.packPath(1)), filepath.Base(dir)
	var all [][]byte
	var want int64
	for i, n := range []int{1, 16, 4096} {
		c.syncs = nil
		batch := make([][]byte, n)
		for j := range batch {
			batch[j] = testPayload(int64(i*10000+j), 64)
			want += blockRecOverhead + 64
		}
		if _, err := s.Intern(batch); err != nil {
			t.Fatal(err)
		}
		wantSyncs := []string{pack}
		if i == 0 {
			wantSyncs = []string{base, pack}
		}
		if !reflect.DeepEqual(c.syncs, wantSyncs) {
			t.Fatalf("Intern of %d new blocks fsynced %v, want %v", n, c.syncs, wantSyncs)
		}
		all = append(all, batch...)
	}
	c.syncs = nil
	if _, err := s.Intern(all); err != nil {
		t.Fatal(err)
	}
	if len(c.syncs) != 0 || c.written != want {
		t.Fatalf("Intern of %d present blocks fsynced %v and wrote %d bytes, want neither", len(all), c.syncs, c.written-want)
	}
	st, err := os.Stat(s.packPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.written != want || st.Size() != want {
		t.Fatalf("%d bytes went through the write seam and the pack holds %d, want %d", c.written, st.Size(), want)
	}
}

// TestSealSyncsThePackItLeaves: a sealed pack is scanned to its end, so
// a cut made in it (a torn tail on open, a rolled-back frame) must be
// durable before the log moves on — the call that rolls fsyncs the pack it leaves, then
// the directory, then the new pack.
func TestSealSyncsThePackItLeaves(t *testing.T) {
	s := openRoll(t, t.TempDir())
	defer s.Close()
	a, b, _ := shapes[0].blocks()
	if _, err := s.Intern(a); err != nil {
		t.Fatal(err)
	}
	var c countingHooks
	s.SetHooks(c.hooks())
	if _, err := s.Intern(b); err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Base(s.packPath(1)), filepath.Base(s.dir), filepath.Base(s.packPath(2))}
	if !reflect.DeepEqual(c.syncs, want) {
		t.Fatalf("the Intern that rolled fsynced %v, want %v", c.syncs, want)
	}
}

// TestFailedInternLeavesNoTrace: an Intern that fails at its third
// chunk of five — a collision, or a write or fsync error — must leave
// memory exactly where disk is: the first two chunks stay held, none of
// the failed batch's new chunks is, GC with a mark of the first two
// keeps exactly those, and a reopen agrees with the live store.
func TestFailedInternLeavesNoTrace(t *testing.T) {
	boom := errors.New("injected")
	for _, mode := range []string{"collision", "write", "sync"} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		chunks := make([][]byte, 5)
		for i := range chunks {
			chunks[i] = testPayload(int64(500+i), 200)
		}
		if _, err := s.Intern(chunks[:2]); err != nil {
			t.Fatal(err)
		}
		wantErr := boom
		switch mode {
		case "collision":
			// The index disagrees with the third chunk about its CRC.
			wantErr = ErrCollision
			if _, err := s.Intern(chunks[2:3]); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			e := s.entries[IDOf(chunks[2])]
			e.crc++
			s.entries[IDOf(chunks[2])] = e
			s.mu.Unlock()
		case "write":
			s.SetHooks(&recframe.Hooks{WrapWrite: func(_ string, w io.Writer) io.Writer {
				return writerFunc(func(p []byte) (int, error) {
					n, _ := w.Write(p[:len(p)/2])
					return n, boom
				})
			}})
		case "sync":
			s.SetHooks(failAt("sync", boom))
		}
		before, _ := os.Stat(s.packPath(1))
		if _, err := s.Intern(chunks); !errors.Is(err, wantErr) {
			t.Fatalf("%s: Intern returned %v, want %v", mode, err, wantErr)
		}
		s.SetHooks(nil)
		if after, _ := os.Stat(s.packPath(1)); after.Size() != before.Size() {
			t.Fatalf("%s: the failed Intern left the pack at %d bytes, was %d", mode, after.Size(), before.Size())
		}
		check := func(s *Store, when string, first int) {
			t.Helper()
			for i, p := range chunks {
				if held(s, IDOf(p)) != (i < first) {
					t.Fatalf("%s, %s: chunk %d held %v, want the first %d held", mode, when, i, held(s, IDOf(p)), first)
				}
			}
			recountStats(t, s)
		}
		interned := map[string]int{"collision": 3}[mode]
		check(s, "after the failure", max(interned, 2))
		gc, err := s.GC(markOf(chunks[:2]...))
		if err != nil {
			t.Fatalf("%s: gc: %v", mode, err)
		}
		if wantDead := max(interned-2, 0); gc.Live != 2 || gc.Reclaimed != wantDead {
			t.Fatalf("%s: gc kept %d and reclaimed %d, want 2 and %d", mode, gc.Live, gc.Reclaimed, wantDead)
		}
		check(s, "after gc", 2)
		s.Close()
		s = mustOpen(t, dir)
		check(s, "after reopen", 2)
		s.Close()
	}
}

// TestPostCommitFailureFailsStop: once the snapshot is renamed into
// place, a failure to make the rename durable must disable the store —
// memory can no longer be known to match what a crash would leave —
// and a reopen recovers from the committed snapshot (what survives of
// the journal-reset fail-stop test of the replaced layout).
func TestPostCommitFailureFailsStop(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keep := testPayload(1, 4096)
	refs, err := s.Intern([][]byte{keep, testPayload(2, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	s.SetHooks(failAt("after-rename", errors.New("injected")))
	if _, err := s.GC(markOf(keep)); err == nil {
		t.Fatal("GC whose commit could not be made durable reported success")
	}
	if _, err := s.Intern([][]byte{testPayload(3, 64)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Intern after the failed commit: %v, want ErrClosed", err)
	}
	if _, err := s.GC(markOf(keep)); !errors.Is(err, ErrClosed) {
		t.Fatalf("GC after the failed commit: %v, want ErrClosed", err)
	}
	s2 := mustOpen(t, dir)
	if _, err := s2.Get(refs[0]); err != nil {
		t.Fatalf("Get after fail-stop and reopen: %v", err)
	}
	if held(s2, refs[1].ID) {
		t.Fatal("dead block survived the committed GC snapshot")
	}
}

// TestRaceGetInternGC runs Get, AppendBlocks and Intern against a GC
// that relocates and unlinks packs: a live block must never read back as
// ErrCorrupt or ErrNotFound, however the read interleaves with its move
// — alone, or in the middle of a run the relocation splits.
func TestRaceGetInternGC(t *testing.T) {
	s := openRoll(t, t.TempDir())
	defer s.Close()
	keep := make([][]byte, 8)
	for i := range keep {
		keep[i] = testPayload(int64(i), 300)
	}
	if _, err := s.Intern(keep); err != nil {
		t.Fatal(err)
	}
	all, allRefs := bytes.Join(keep, nil), refsOf(keep...)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc ReadScratch
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := keep[i%len(keep)]
				if got, err := s.Get(Ref{ID: IDOf(p), Len: uint32(len(p))}); err != nil || !bytes.Equal(got, p) {
					t.Errorf("Get of a live block during GC: %v", err)
					return
				}
				if got, _, err := s.AppendBlocks(nil, 0, allRefs, &sc); err != nil || !bytes.Equal(got, all) {
					t.Errorf("AppendBlocks of the live blocks during GC: %v", err)
					return
				}
			}
		}()
	}
	// Each round fills packs with short-lived blocks the mark does not
	// find, and lets GC move the survivors out of the sparse packs it
	// unlinks.
	for round := 0; round < 30; round++ {
		junk := make([][]byte, 6)
		for i := range junk {
			junk[i] = testPayload(int64(1000+round*10+i), 300)
		}
		if _, err := s.Intern(append(junk, keep[round%len(keep)])); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GC(markOf(keep...)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := len(mustReadDir(t, s.dir)); n > 6 {
		t.Fatalf("%d files left in the store directory: GC is not unlinking emptied packs", n)
	}
}
