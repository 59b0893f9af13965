package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func storeDiff(ck int, tag byte) *Diff {
	data := bytes.Repeat([]byte{tag}, 100)
	return &Diff{Method: MethodFull, CkptID: uint32(ck), DataLen: 100, ChunkSize: 16, Data: data}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := fs.Len(); n != 0 {
		t.Fatalf("fresh store has %d diffs", n)
	}
	for ck := 0; ck < 3; ck++ {
		if err := fs.Append(storeDiff(ck, byte(ck+1))); err != nil {
			t.Fatal(err)
		}
	}
	if n := fs.Len(); n != 3 {
		t.Fatalf("store has %d diffs, want 3", n)
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 3; ck++ {
		got, err := rec.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(ck+1) {
			t.Fatalf("restore %d wrong content", ck)
		}
	}
	// Reopen and append more.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Append(storeDiff(3, 9)); err != nil {
		t.Fatal(err)
	}
	if n := fs2.Len(); n != 4 {
		t.Fatalf("reopened store has %d diffs", n)
	}
	if fs2.Dir() != dir {
		t.Fatal("dir accessor wrong")
	}
}

func TestFileStoreContiguity(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(storeDiff(2, 1)); err == nil {
		t.Fatal("non-contiguous append accepted")
	}
	if err := fs.Append(storeDiff(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(storeDiff(0, 1)); err == nil {
		t.Fatal("duplicate append accepted")
	}
}

func TestFileStoreEmptyLoad(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Load(); err == nil {
		t.Fatal("empty store loaded")
	}
}

func TestFileStoreCorruptDiff(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(storeDiff(0, 1)); err != nil {
		t.Fatal(err)
	}
	path, off, _, err := fs.Locate(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("garbage"), off+recHdrSize); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt diff loaded: %v", err)
	}
}

func TestFileStoreWriteRecord(t *testing.T) {
	rec := NewRecord()
	for ck := 0; ck < 2; ck++ {
		if err := rec.Append(storeDiff(ck, byte(ck))); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	back, err := fs.Load()
	if err != nil || back.Len() != 2 {
		t.Fatalf("write-record round trip failed: %v", err)
	}
	if err := fs.WriteRecord(rec); err == nil {
		t.Fatal("write into non-empty store accepted")
	}
}

func TestFileStoreConcurrentAppendOneWinner(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two goroutines race to append the same next id. Exactly one may
	// win; the loser must see a contiguity error, and exactly one
	// record must exist afterwards. The ckptd server relies on this.
	const racers = 8
	errs := make(chan error, racers)
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < racers; g++ {
		tag := byte(g + 1)
		go func() {
			start.Wait()
			errs <- fs.Append(storeDiff(0, tag))
		}()
	}
	start.Done()
	var wins, losses int
	for g := 0; g < racers; g++ {
		if err := <-errs; err == nil {
			wins++
		} else {
			losses++
		}
	}
	if wins != 1 || losses != racers-1 {
		t.Fatalf("got %d winners, %d losers; want exactly 1 winner", wins, losses)
	}
	if n := fs.Len(); n != 1 {
		t.Fatalf("store holds %d diffs after race, want 1", n)
	}
	want, _ := fs.DiffBytes(0)
	if total := fs.TotalBytes(); total != int64(recHdrSize+len(want)) {
		t.Fatalf("segment holds %d bytes after race, want one record of %d", total, recHdrSize+len(want))
	}
}

func TestFileStoreDiffBytes(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := storeDiff(0, 7)
	var want bytes.Buffer
	if err := d.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(d); err != nil {
		t.Fatal(err)
	}
	got, err := fs.DiffBytes(0)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("DiffBytes mismatch: %d vs %d bytes, err %v", len(got), want.Len(), err)
	}
	if _, err := fs.DiffBytes(1); err == nil {
		t.Fatal("out-of-range DiffBytes accepted")
	}
	if _, err := fs.DiffBytes(-1); err == nil {
		t.Fatal("negative DiffBytes accepted")
	}
	// On-disk accounting includes the record header; DiffBytes strips
	// it, so the two sizes differ by exactly recHdrSize per diff.
	if total := fs.TotalBytes(); total != int64(want.Len()+recHdrSize) {
		t.Fatalf("TotalBytes %d, want %d", total, want.Len()+recHdrSize)
	}
}

// foldTo moves the baseline to base the way compaction does: it
// installs the stored span [base, Len) unchanged.
func foldTo(t *testing.T, fs *FileStore, base int) {
	t.Helper()
	n := fs.Len()
	var span []*Diff
	for ck := base; ck < n; ck++ {
		d, err := fs.decodeVerified(ck, &ReadScratch{})
		if err != nil {
			t.Fatal(err)
		}
		span = append(span, d)
	}
	if err := fs.InstallSpan(base, span); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreBaseline(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 5; ck++ {
		if err := fs.Append(storeDiff(ck, byte(ck+1))); err != nil {
			t.Fatal(err)
		}
	}
	foldTo(t, fs, 2)
	if fs.Base() != 2 {
		t.Fatalf("base %d, want 2", fs.Base())
	}
	if n := fs.Len(); n != 5 {
		t.Fatalf("len %d, want 5 (absolute)", n)
	}
	if _, err := fs.DiffBytes(1); err == nil {
		t.Fatal("DiffBytes below baseline served")
	}
	// Load returns the store's own span, indexed by the same ids.
	rec, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base() != fs.Base() || rec.Len() != fs.Len() {
		t.Fatalf("record [%d,%d), store [%d,%d)", rec.Base(), rec.Len(), fs.Base(), fs.Len())
	}
	if _, err := rec.Restore(1); err == nil {
		t.Fatal("restore below the baseline served")
	}
	for ck := 2; ck < 5; ck++ {
		state, err := rec.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if state[0] != byte(ck+1) {
			t.Fatalf("checkpoint %d restored tag %d", ck, state[0])
		}
	}
	// Appends continue at the absolute length.
	if err := fs.Append(storeDiff(5, 6)); err != nil {
		t.Fatal(err)
	}
	// The lineage directory holds the manifest and the one segment it
	// names, whose size is the cached TotalBytes.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("directory after fold: %v %v", entries, err)
	}
	st, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if total := fs.TotalBytes(); total != st.Size() {
		t.Fatalf("cached TotalBytes %d, on-disk %d", total, st.Size())
	}
}

func TestFileStoreAppendRejectsPrunedReference(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 3; ck++ {
		if err := fs.Append(storeDiff(ck, 1)); err != nil {
			t.Fatal(err)
		}
	}
	foldTo(t, fs, 2)
	// A diff whose shifted duplicate references checkpoint 1 (< base 2)
	// would be unrestorable; the store must refuse it.
	bad := &Diff{Method: MethodTree, CkptID: 3, DataLen: 100, ChunkSize: 16,
		FirstOcur: Firsts(6), ShiftDupl: Shifts(ShiftRegion{Node: 7, SrcNode: 6, SrcCkpt: 1}),
		Data: bytes.Repeat([]byte{9}, 100)}
	if err := fs.Append(bad); err == nil {
		t.Fatal("append referencing pruned checkpoint accepted")
	}
	ok := &Diff{Method: MethodTree, CkptID: 3, DataLen: 100, ChunkSize: 16,
		FirstOcur: Firsts(6), ShiftDupl: Shifts(ShiftRegion{Node: 7, SrcNode: 6, SrcCkpt: 2}),
		Data: bytes.Repeat([]byte{9}, 100)}
	if err := fs.Append(ok); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFileStoreLen measures the O(1) cached Len/TotalBytes path,
// guarding it against regressing to I/O.
func BenchmarkFileStoreLen(b *testing.B) {
	fs, err := NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for ck := 0; ck < 64; ck++ {
		data := bytes.Repeat([]byte{byte(ck)}, 100)
		d := &Diff{Method: MethodFull, CkptID: uint32(ck), DataLen: 100, ChunkSize: 16, Data: data}
		if err := fs.Append(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs.Len() != 64 || fs.TotalBytes() == 0 {
			b.Fatal("the store lost its span")
		}
	}
}
