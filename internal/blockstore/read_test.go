package blockstore

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// readCounter counts the pack reads of the read path at the hooks seam.
func readCounter(n *int) *recframe.Hooks {
	return &recframe.Hooks{Seam: func(point, _ string) error {
		if point == "read" {
			*n++
		}
		return nil
	}}
}

// TestAppendBlocksMatchesGet: whatever order, repetition and pack
// spread a reference list has, the run reader returns exactly the bytes
// a Get per reference does, behind whatever dst already holds, and the
// running CRC32C it was handed extended with them.
func TestAppendBlocksMatchesGet(t *testing.T) {
	s := openRoll(t, t.TempDir()) // 1500-byte packs: the batches below span several
	defer s.Close()
	var blocks [][]byte
	for batch := 0; batch < 6; batch++ {
		var ps [][]byte
		for i := 0; i < 9; i++ {
			ps = append(ps, testPayload(int64(batch*100+i), 40+13*i))
		}
		if batch > 0 {
			ps = append(ps, blocks[0], ps[2]) // a hit and an in-batch duplicate
		}
		if _, err := s.Intern(ps); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, ps...)
	}
	if _, err := os.Stat(s.packPath(3)); err != nil {
		t.Fatalf("the batches did not spread over three packs: %v", err)
	}
	inOrder := refsOf(blocks...)
	shuffled := append([]Ref(nil), inOrder...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	doubled := append(append([]Ref(nil), inOrder...), inOrder...)
	unsized := append([]Ref(nil), inOrder[:12]...)
	for i := range unsized {
		unsized[i].Len = 0
	}
	var sc ReadScratch
	for name, refs := range map[string][]Ref{"in order": inOrder, "shuffled": shuffled, "doubled": doubled, "one": inOrder[5:6], "no length": unsized, "none": nil} {
		want := []byte("head")
		for _, r := range refs {
			p, err := s.Get(r)
			if err != nil {
				t.Fatalf("%s: Get: %v", name, err)
			}
			want = append(want, p...)
		}
		tab := crc32.MakeTable(crc32.Castagnoli)
		got, crc, err := s.AppendBlocks([]byte("head"), crc32.Checksum([]byte("head"), tab), refs, &sc)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendBlocks returned %d bytes, %v; want the %d a Get per block gives", name, len(got), err, len(want))
		}
		if crc != crc32.Checksum(want, tab) {
			t.Fatalf("%s: AppendBlocks returned CRC %08x, want %08x", name, crc, crc32.Checksum(want, tab))
		}
	}

	// A reference the store cannot serve fails the whole call typed, names
	// the block, and gives dst back.
	missing := Ref{ID: IDOf([]byte("never interned")), Len: 14}
	got, _, err := s.AppendBlocks([]byte("kept"), 0, append(inOrder[:3:3], missing), &sc)
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), missing.ID.String()) || string(got) != "kept" {
		t.Fatalf("unknown block in the list: %q, %v", got, err)
	}
	wrong := inOrder[1]
	wrong.Len++
	got, _, err = s.AppendBlocks([]byte("kept"), 0, []Ref{inOrder[0], wrong, inOrder[2]}, &sc)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), wrong.ID.String()) || string(got) != "kept" {
		t.Fatalf("reference with the wrong length: %q, %v", got, err)
	}
}

// TestReadBudget counts what a read costs through the hook seam, beside
// TestFsyncBudget: the blocks one Intern wrote sit back to back, so
// reading N of them in order is at most ceil(bytes / runCap) + 1 pack
// reads — not N — and a block that was already present (a dedup hit)
// costs the run it interrupts one more.
func TestReadBudget(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var reads int
	var sc ReadScratch
	cost := func(refs []Ref) int {
		t.Helper()
		reads = 0
		if _, _, err := s.AppendBlocks(nil, 0, refs, &sc); err != nil {
			t.Fatal(err)
		}
		return reads
	}
	var first []Ref
	for i, n := range []int{1, 16, 4096} {
		batch := make([][]byte, n)
		for j := range batch {
			batch[j] = testPayload(int64(i*10000+j), 64)
		}
		s.SetHooks(nil)
		refs, err := s.Intern(batch)
		if err != nil {
			t.Fatal(err)
		}
		s.SetHooks(readCounter(&reads))
		size := n * (blockRecOverhead + 64)
		if got, budget := cost(refs), (size+runCap-1)/runCap+1; got > budget {
			t.Fatalf("reading %d adjacent blocks (%d record bytes) took %d pack reads, budget %d", n, size, got, budget)
		}
		if cap(sc.run) > runCap {
			t.Fatalf("the read scratch grew to %d bytes, over the run cap of %d", cap(sc.run), runCap)
		}
		if i == 0 {
			first = refs
		}
	}
	// [new new HIT new new]: the hit lives in the first frame, so the
	// batch's own four blocks are still adjacent on disk but the list
	// reads as three runs.
	batch := [][]byte{testPayload(1, 64), testPayload(2, 64), nil, testPayload(3, 64), testPayload(4, 64)}
	s.SetHooks(nil)
	batch[2], _ = s.Get(first[0])
	refs, err := s.Intern(batch)
	if err != nil {
		t.Fatal(err)
	}
	s.SetHooks(readCounter(&reads))
	if got := cost(refs); got != 3 {
		t.Fatalf("a list with a dedup hit in the middle took %d pack reads, want 3", got)
	}
	if got := cost([]Ref{refs[0], refs[1], refs[3], refs[4]}); got != 1 {
		t.Fatalf("the four blocks the batch added took %d pack reads, want 1", got)
	}
}

// TestReadFailureAtTheSeam: an I/O failure of a run's read is an error
// naming the first block of the run it took away, not ErrCorrupt, and
// dst comes back as it went in.
func TestReadFailureAtTheSeam(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	refs, err := s.Intern([][]byte{testPayload(1, 64), testPayload(2, 64)})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	s.SetHooks(failAt("read", boom))
	got, _, err := s.AppendBlocks([]byte("kept"), 0, refs, &ReadScratch{})
	if !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), refs[0].ID.String()) || string(got) != "kept" {
		t.Fatalf("failed read: %q, %v", got, err)
	}
	s.SetHooks(nil)
	if _, _, err := s.AppendBlocks(nil, 0, refs, &ReadScratch{}); err != nil {
		t.Fatalf("the read after the failure: %v", err)
	}
}

// TestReadAcrossRelocation is the interleaving TestRaceGetInternGC hopes
// to hit, made to happen: between resolving a list and reading its first
// run, a GC moves every block of the list out of its pack and unlinks
// the pack. The read must fail over to where the index points now and
// return the right bytes, not the error of the handle GC closed.
func TestReadAcrossRelocation(t *testing.T) {
	s := openRoll(t, t.TempDir())
	defer s.Close()
	keep, junk := make([][]byte, 4), make([][]byte, 6)
	for i := range keep {
		keep[i] = testPayload(int64(i), 100)
	}
	for i := range junk {
		junk[i] = testPayload(int64(100+i), 300)
	}
	refs, err := s.Intern(append(keep[:4:4], junk...))
	if err != nil {
		t.Fatal(err)
	}
	reads, moved := 0, false
	s.SetHooks(&recframe.Hooks{Seam: func(point, _ string) error {
		if point != "read" {
			return nil
		}
		reads++
		if moved {
			return nil
		}
		moved = true // GC's own reads come through here too
		// This Intern seals the first pack.
		if _, err := s.Intern([][]byte{testPayload(200, 64)}); err != nil {
			t.Error(err)
		}
		if _, err := s.GC(markOf(keep...)); err != nil {
			t.Error(err)
		}
		return nil
	}})
	got, _, err := s.AppendBlocks([]byte("head"), 0, refs[:4], &ReadScratch{})
	if err != nil || !bytes.Equal(got, append([]byte("head"), bytes.Join(keep, nil)...)) {
		t.Fatalf("read across the relocation: %d bytes, %v", len(got), err)
	}
	if _, err := os.Stat(s.packPath(1)); !os.IsNotExist(err) {
		t.Fatalf("the pack the read started in is still there (%v): nothing was relocated under it", err)
	}
	if reads < 3 { // the attempt GC pulled the pack from under, GC's own, the one that succeeded
		t.Fatalf("%d pack reads: the read did not go back to the index", reads)
	}
}
