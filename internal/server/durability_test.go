package server

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// reopen closes srv and opens a server over the same root, as a
// restart after a crash does.
func reopen(t *testing.T, srv *Server) *Server {
	t.Helper()
	root := srv.cfg.Root
	srv.Close()
	again, err := New(quiet(Config{Root: root}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { again.Close() })
	return again
}

// storedDiff returns the stored bytes of checkpoint ck of lineage name.
func storedDiff(t *testing.T, srv *Server, name string, ck int) ([]byte, error) {
	t.Helper()
	ln, _ := openLineage(t, srv, name)
	return ln.store.DiffBytes(ck)
}

// TestGCBetweenWriteAndSettle: a GC — the server's mark and the block
// store's sweep — that runs after a streamed run has written its blocks
// and before it settles reclaims none of them: they are pinned. After
// the settle and a reopen every acked id restores byte-exact.
func TestGCBetweenWriteAndSettle(t *testing.T) {
	srv := newServer(t)
	_, h := openLineage(t, srv, "window")
	const n, size = 4, 64 << 10
	payloads := runPayloads(t, 0, n, size)
	c := newIntakeConn(t, srv)
	if held := c.serve(t, streamBurst(t, h, 0, payloads)); held[n-1] != n {
		t.Fatalf("the run staged %v, want all %d frames", held, n)
	}
	written := srv.blocks.Stats().Blocks
	if written < n*size/4096 {
		t.Fatalf("the run wrote %d blocks, want %d", written, n*size/4096)
	}
	srv.CollectBlocks()
	if kept := srv.blocks.Stats().Blocks; kept != written {
		t.Fatalf("a GC between the run's writes and its settle kept %d of its %d blocks", kept, written)
	}
	c.settle(t)
	srv = reopen(t, srv)
	srv.CollectBlocks()
	for ck, p := range payloads {
		if got, err := storedDiff(t, srv, "window", ck); err != nil || !bytes.Equal(got, p[wire.PushChecksumSize:]) {
			t.Fatalf("after the settle and a reopen diff %d does not restore byte-exact: %v", ck, err)
		}
	}
}

// syncLog records the logs — packs and segments — the stores fsync, in
// order, and once crash is set simulates a crash at the first write to
// a segment, before any byte of it lands.
type syncLog struct {
	mu    sync.Mutex
	syncs []string
	crash bool
}

func (l *syncLog) hooks() *recframe.Hooks {
	return &recframe.Hooks{
		WrapWrite: func(path string, w io.Writer) io.Writer {
			if l.crash && strings.HasPrefix(filepath.Base(path), "segment-") {
				return crashWriter{}
			}
			return w
		},
		Seam: func(point, path string) error {
			if name := filepath.Base(path); point == recframe.SeamSync && strings.HasSuffix(name, ".log") {
				l.mu.Lock()
				l.syncs = append(l.syncs, name)
				l.mu.Unlock()
			}
			return nil
		},
	}
}

// crashWriter is a process that dies before it writes.
type crashWriter struct{}

func (crashWriter) Write([]byte) (int, error) { return 0, recframe.ErrSimulatedCrash }

// TestDedupHitOnUnsyncedBlockSurvivesCrash: lineage B dedup-hits blocks
// that lineage A's open run wrote but has not synced. B's settle fsyncs
// the pack before it fsyncs the segment record that names them, so when
// a crash hits A's settle, B restores byte-exact after a reopen and A's
// unacked ids are absent.
func TestDedupHitOnUnsyncedBlockSurvivesCrash(t *testing.T) {
	srv := newServer(t)
	lnA, hA := openLineage(t, srv, "a")
	lnB, hB := openLineage(t, srv, "b")
	var log syncLog
	srv.SetStorageHooks(log.hooks())
	lnA.store.SetHooks(log.hooks())
	lnB.store.SetHooks(log.hooks())

	enc := bigEncodedDiff(t, 0, 64<<10)
	payload := wire.EncodePush(enc)
	a := newIntakeConn(t, srv)
	a.serve(t, streamBurst(t, hA, 0, [][]byte{payload}))
	if len(a.run.diffs) != 1 || len(log.syncs) != 0 {
		t.Fatalf("A's run staged %d diffs and fsynced %v, want 1 and nothing", len(a.run.diffs), log.syncs)
	}
	blocks := srv.blocks.Stats().Blocks

	var push bytes.Buffer
	if err := wire.WriteFrame(&push, &wire.Frame{Type: wire.TPush, Lineage: hB, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	newIntakeConn(t, srv).serve(t, push.Bytes())
	if lnB.store.Len() != 1 || srv.blocks.Stats().Blocks != blocks {
		t.Fatalf("B's push left it %d long and the store at %d blocks, want 1 and the %d A wrote", lnB.store.Len(), srv.blocks.Stats().Blocks, blocks)
	}
	if len(log.syncs) != 2 || !strings.HasPrefix(log.syncs[0], "pack-") || !strings.HasPrefix(log.syncs[1], "segment-") {
		t.Fatalf("B's settle fsynced %v, want the pack, then its segment", log.syncs)
	}

	log.crash = true
	a.settle(t)
	if lnA.store.Len() != 0 {
		t.Fatalf("A's crashed settle left it %d long", lnA.store.Len())
	}
	srv = reopen(t, srv)
	if got, err := storedDiff(t, srv, "b", 0); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("after the crash and a reopen B does not restore byte-exact: %v", err)
	}
	if ln, _ := openLineage(t, srv, "a"); ln.store.Len() != 0 {
		t.Fatalf("after the crash and a reopen A holds %d unacked diffs", ln.store.Len())
	}
	srv.CollectBlocks()
	if got, err := storedDiff(t, srv, "b", 0); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("a GC after the reopen took blocks B needs: %v", err)
	}
}
