package gpuckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
)

func TestGroupRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	grid := make([]byte, 32*1024)
	solver := make([]byte, 8*1024)
	rng.Read(grid)
	rng.Read(solver)

	g := NewGroup(Config{Method: MethodTree, ChunkSize: 64})
	defer g.Close()
	if err := g.Protect("grid", len(grid)); err != nil {
		t.Fatal(err)
	}
	if err := g.Protect("solver", len(solver)); err != nil {
		t.Fatal(err)
	}
	if got := g.Members(); len(got) != 2 || got[0] != "grid" || got[1] != "solver" {
		t.Fatalf("members = %v", got)
	}

	type snap struct{ grid, solver []byte }
	var snaps []snap
	for k := 0; k < 4; k++ {
		if k > 0 {
			off := rng.Intn(len(grid) - 512)
			rng.Read(grid[off : off+512])
			rng.Read(solver[:128])
		}
		snaps = append(snaps, snap{
			grid:   append([]byte(nil), grid...),
			solver: append([]byte(nil), solver...),
		})
		res, err := g.Checkpoint(map[string][]byte{"grid": grid, "solver": solver})
		if err != nil {
			t.Fatal(err)
		}
		if res.CkptID != k {
			t.Fatalf("group ckpt id %d, want %d", res.CkptID, k)
		}
		if res.InputBytes != int64(len(grid)+len(solver)) {
			t.Fatalf("input bytes %d", res.InputBytes)
		}
		if len(res.PerMember) != 2 || res.StoredBytes <= 0 {
			t.Fatalf("bad group result: %+v", res)
		}
	}
	if g.ckpts != 4 {
		t.Fatalf("group has %d checkpoints", g.ckpts)
	}
	if g.dev.Elapsed() <= 0 {
		t.Fatal("degenerate group accounting")
	}
	for k, s := range snaps {
		got, err := g.Restore(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got["grid"], s.grid) || !bytes.Equal(got["solver"], s.solver) {
			t.Fatalf("group restore %d mismatch", k)
		}
	}
	latest, err := g.RestoreLatest()
	if err != nil || !bytes.Equal(latest["grid"], snaps[3].grid) {
		t.Fatalf("restore latest failed: %v", err)
	}
}

func TestGroupValidation(t *testing.T) {
	g := NewGroup(Config{Method: MethodTree, ChunkSize: 64})
	defer g.Close()
	if _, err := g.Checkpoint(nil); err == nil {
		t.Fatal("empty group checkpointed")
	}
	if err := g.Protect("", 100); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := g.Protect("a", 0); err == nil {
		t.Fatal("zero-length member accepted")
	}
	if err := g.Protect("a", 100); err != nil {
		t.Fatal(err)
	}
	if err := g.Protect("a", 100); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := g.Checkpoint(map[string][]byte{"b": make([]byte, 100)}); err == nil {
		t.Fatal("unknown member accepted")
	}
	if _, err := g.Checkpoint(map[string][]byte{}); err == nil {
		t.Fatal("missing buffers accepted")
	}
	if _, err := g.Checkpoint(map[string][]byte{"a": make([]byte, 55)}); err == nil {
		t.Fatal("wrong-length buffer accepted")
	}
	if _, err := g.Restore(0); err == nil {
		t.Fatal("restore before any checkpoint succeeded")
	}
	if _, err := g.Checkpoint(map[string][]byte{"a": make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := g.Protect("late", 10); err == nil {
		t.Fatal("member added after first checkpoint")
	}
	g.Close()
	g.Close() // idempotent
	if err := g.Protect("x", 10); err == nil {
		t.Fatal("protect after close accepted")
	}
	if _, err := g.Checkpoint(map[string][]byte{"a": make([]byte, 100)}); err == nil {
		t.Fatal("checkpoint after close accepted")
	}
}

func TestGroupPersistDir(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := make([]byte, 4096)
	b := make([]byte, 2048)
	rng.Read(a)
	rng.Read(b)
	dir := t.TempDir()

	g := NewGroup(Config{Method: MethodTree, ChunkSize: 64, PersistDir: dir})
	defer g.Close()
	if err := g.Protect("a", len(a)); err != nil {
		t.Fatal(err)
	}
	if err := g.Protect("b", len(b)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if k > 0 {
			rng.Read(a[100:200])
		}
		if _, err := g.Checkpoint(map[string][]byte{"a": a, "b": b}); err != nil {
			t.Fatal(err)
		}
	}
	// Each member's lineage loads independently.
	recA, err := ReadRecordDir(dir + "/a")
	if err != nil || recA.Len() != 2 {
		t.Fatalf("member a lineage: %v", err)
	}
	got, err := recA.Restore(1)
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("member a restore: %v", err)
	}
	recB, err := ReadRecordDir(dir + "/b")
	if err != nil || recB.Len() != 2 {
		t.Fatalf("member b lineage: %v", err)
	}
}

// TestGroupSharedBlockStore checks that a PersistDir carrying a
// _blocks directory makes member lineages intern their diff payloads
// into one shared content-addressed store: two members protecting
// identical buffers store the data once, and both lineages still load
// and restore byte-exactly through the public API.
func TestGroupSharedBlockStore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 4096)
	rng.Read(buf)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "_blocks"), 0o755); err != nil {
		t.Fatal(err)
	}

	g := NewGroup(Config{Method: MethodTree, ChunkSize: 64, PersistDir: dir})
	defer g.Close()
	for _, name := range []string{"solver", "gdv"} {
		if err := g.Protect(name, len(buf)); err != nil {
			t.Fatal(err)
		}
	}
	// Both members checkpoint the same bytes: every chunk the second
	// member interns must hit the block the first already stored.
	if _, err := g.Checkpoint(map[string][]byte{"solver": buf, "gdv": buf}); err != nil {
		t.Fatal(err)
	}
	st := g.blocks.Stats()
	if st.Interned == 0 {
		t.Fatal("no blocks interned into the shared store")
	}
	if st.DedupHits == 0 {
		t.Fatalf("identical member buffers produced no dedup hits: %+v", st)
	}
	g.Close()

	for _, name := range []string{"solver", "gdv"} {
		rec, err := ReadRecordDir(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("member %s lineage: %v", name, err)
		}
		got, err := rec.Restore(0)
		if err != nil || !bytes.Equal(got, buf) {
			t.Fatalf("member %s restore mismatch: %v", name, err)
		}
	}
}

// TestGroupRefusesOldBlockLayout: a PersistDir whose _blocks is of the
// replaced file-per-block layout fails Protect with the block store's
// typed error.
func TestGroupRefusesOldBlockLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, blockstore.DirName, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	g := NewGroup(Config{Method: MethodTree, ChunkSize: 64, PersistDir: dir})
	defer g.Close()
	if err := g.Protect("grid", 4096); !errors.Is(err, blockstore.ErrOldLayout) {
		t.Fatalf("Protect over an old-layout block store: %v, want blockstore.ErrOldLayout", err)
	}
}

// Closing a Group, and a finished BuildWorkloadSeries, stop the worker
// pools they made: the goroutine count settles back to its starting
// value. A pool of Workers: 4 parks three helpers, so a leak shows.
func TestWorkerPoolsStop(t *testing.T) {
	settles := func(what string, start int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
	}

	start := runtime.NumGoroutine()
	g := NewGroup(Config{Method: MethodTree, ChunkSize: 64, Workers: 4})
	if err := g.Protect("grid", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(map[string][]byte{"grid": make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	g.Close()
	settles("Group.Close", start)

	start = runtime.NumGoroutine()
	if _, err := BuildWorkloadSeries(WorkloadConfig{Graph: WorkloadGraphs()[0], TargetVertices: 1500, Checkpoints: 2, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	settles("BuildWorkloadSeries", start)
}
