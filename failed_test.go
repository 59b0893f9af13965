package gpuckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// tightConfig is a Tree lineage of 16 chunks of 32 B whose historical
// record holds its baseline (31 nodes) with one slot to spare.
var tightConfig = Config{Method: MethodTree, ChunkSize: 32, MapCapacity: 16, Workers: 1}

const tightLen = 16 * 32

// TestRebaseAfterFailedCheckpoint: a checkpoint that fills the
// historical record ends the engine, so the retry is refused with an
// error matching hashmap.ErrFull; the committed checkpoint restores,
// and Rebase carries the lineage on in a fresh engine.
func TestRebaseAfterFailedCheckpoint(t *testing.T) {
	c, err := New(tightConfig, tightLen)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, tightLen)
	rand.New(rand.NewSource(1)).Read(buf)
	base := bytes.Clone(buf)
	if _, err := c.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(2)).Read(buf[:64]) // chunks 0 and 1
	if _, err := c.Checkpoint(buf); !errors.Is(err, hashmap.ErrFull) {
		t.Fatalf("two new chunks into one free slot: %v, want ErrFull", err)
	}
	copy(buf[32:64], base[32:64]) // chunk 1 reverts
	if _, err := c.Checkpoint(buf); !errors.Is(err, hashmap.ErrFull) {
		t.Fatalf("retry after the failure: %v, want a refusal matching ErrFull", err)
	}
	if got, err := c.Restore(0); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("committed checkpoint after the failure: err=%v", err)
	}

	old, err := c.Rebase()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := old.Restore(0); old.Len() != 1 || err != nil || !bytes.Equal(got, base) {
		t.Fatalf("archived lineage: %d checkpoints, err=%v", old.Len(), err)
	}
	if _, err := c.Checkpoint(buf); err != nil {
		t.Fatalf("checkpoint after the rebase: %v", err)
	}
	for k, want := range [][]byte{base, buf} {
		if got, err := c.Restore(k); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rebased lineage, checkpoint %d: err=%v", k, err)
		}
	}
}

// TestPersistDirCatchesUp: a checkpoint whose PersistDir append fails
// is committed in memory, and the next checkpoint appends both, so the
// directory restores every id.
func TestPersistDirCatchesUp(t *testing.T) {
	dir := t.TempDir()
	cfg := tightConfig
	cfg.MapCapacity, cfg.PersistDir = 0, dir
	c, err := New(cfg, tightLen)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, tightLen)
	var images [][]byte
	for k := 0; k < 4; k++ {
		rng.Read(buf[32*k : 32*k+32])
		fail := k == 1
		if fail {
			c.store.SetHooks(&recframe.Hooks{Seam: func(point, _ string) error {
				if point == recframe.SeamSync && fail {
					fail = false
					return errors.New("injected fsync failure")
				}
				return nil
			}})
		}
		_, err := c.Checkpoint(buf)
		if k == 1 {
			if err == nil || !strings.Contains(err.Error(), "persisting diff") {
				t.Fatalf("checkpoint with a failing append: %v", err)
			}
			c.store.SetHooks(nil)
		} else if err != nil {
			t.Fatalf("checkpoint %d: %v", k, err)
		}
		images = append(images, bytes.Clone(buf))
	}
	rec, err := ReadRecordDir(dir)
	if err != nil || rec.Len() != len(images) {
		t.Fatalf("persist dir: err=%v, want %d checkpoints", err, len(images))
	}
	for k, want := range images {
		if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("persist dir checkpoint %d: err=%v", k, err)
		}
	}
}

// TestGroupRefusesAfterPartialRound: when member "b" fills its
// historical record, member "a" has already committed the round, so
// the group refuses every later round, naming "b"; the rounds every
// member committed restore exactly.
func TestGroupRefusesAfterPartialRound(t *testing.T) {
	g := NewGroup(tightConfig)
	defer g.Close()
	bufs := map[string][]byte{"a": make([]byte, tightLen), "b": make([]byte, tightLen)}
	for _, name := range []string{"a", "b"} {
		if err := g.Protect(name, tightLen); err != nil {
			t.Fatal(err)
		}
		rand.New(rand.NewSource(int64(len(name)))).Read(bufs[name])
	}
	base := map[string][]byte{"a": bytes.Clone(bufs["a"]), "b": bytes.Clone(bufs["b"])}
	if _, err := g.Checkpoint(bufs); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(4)).Read(bufs["b"][:64])
	for round := 1; round <= 2; round++ {
		_, err := g.Checkpoint(bufs)
		if !errors.Is(err, hashmap.ErrFull) || !strings.Contains(err.Error(), `member "b"`) {
			t.Fatalf("round %d: %v, want an error naming member b and matching ErrFull", round, err)
		}
		rand.New(rand.NewSource(int64(round))).Read(bufs["a"][:32])
	}
	if n := g.members["a"].NumCheckpoints(); n != 2 {
		t.Fatalf("member a holds %d checkpoints, want its baseline and the partial round", n)
	}
	got, err := g.Restore(0)
	if err != nil || !bytes.Equal(got["a"], base["a"]) || !bytes.Equal(got["b"], base["b"]) {
		t.Fatalf("round 0 after the failure: err=%v", err)
	}
	if _, err := g.Restore(1); err == nil {
		t.Fatal("the partial round restores")
	}
}
