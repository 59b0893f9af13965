package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// rotatedDiff encodes checkpoint ck of an image of chunks 8-byte chunks
// whose every chunk is the next one of checkpoint 0: a List diff of
// shifted duplicates only, 12 bytes of region metadata a chunk and no
// data.
func rotatedDiff(t testing.TB, ck, chunks int) []byte { return rotatedDiffBy(t, ck, chunks, 1) }

// rotatedDiffBy is rotatedDiff with every chunk the by-th next one.
func rotatedDiffBy(t testing.TB, ck, chunks, by int) []byte {
	t.Helper()
	g := merkle.NewGeometry(chunks)
	d := &checkpoint.Diff{Method: checkpoint.MethodList, CkptID: uint32(ck), DataLen: uint64(8 * chunks), ChunkSize: 8}
	for c := range chunks {
		d.ShiftDupl = d.ShiftDupl.Append(checkpoint.ShiftRegion{
			Node: uint32(g.LeafNode(c)), SrcNode: uint32(g.LeafNode((c + by) % chunks))})
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIntakeWritesRegionListsOnce: a stream frame's region lists are
// read once, into memory the connection owns and reuses run after run,
// and written from there: on a warm connection the intake and settle of
// a frame carrying 1.5 MiB of region metadata allocate next to nothing,
// and the stored bytes are the pushed ones, also once that memory has
// been overwritten.
func TestIntakeWritesRegionListsOnce(t *testing.T) {
	srv := newServer(t)
	ln, h := openLineage(t, srv, "lists")
	const chunks = 128 << 10 // 1.5 MiB of shift regions a diff
	want := [][]byte{bigEncodedDiff(t, 0, 8*chunks), rotatedDiff(t, 1, chunks), rotatedDiff(t, 2, chunks)}
	c := newIntakeConn(t, srv)
	stage := func(ck int) {
		c.serve(t, streamBurst(t, h, ck, [][]byte{wire.EncodePush(want[ck])}))
		c.settle(t)
	}
	stage(0)
	stage(1)
	frame := streamBurst(t, h, 2, [][]byte{wire.EncodePush(want[2])})
	alloc := allocated(func() {
		c.serve(t, frame)
		c.settle(t)
	})
	t.Logf("intake and settle of a %d-byte diff: %d B allocated", len(want[2]), alloc)
	if alloc >= 64<<10 {
		t.Fatalf("intake and settle of a %d-byte diff allocated %d bytes, want under 64 KiB", len(want[2]), alloc)
	}
	meta := c.run.meta[:cap(c.run.meta)]
	if len(meta) < 12*chunks {
		t.Fatalf("the run read the region lists into %d bytes of its own, want at least %d", len(meta), 12*chunks)
	}
	for i := range meta {
		meta[i] = 0xA5
	}
	for ck, enc := range want {
		if got, err := ln.store.DiffBytes(ck); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("stored diff %d is not the pushed bytes (%v)", ck, err)
		}
	}
}

// TestBaselinePushAllocation: a warm server ingests a 4 MiB baseline
// push — every block new — allocating at most 256 KiB, most of it the
// block index growing by 1,024 entries: the data goes from the
// connection's read buffer to the block store, never into a buffer of
// the frame's size. The connection has pushed one such baseline to
// another lineage before.
func TestBaselinePushAllocation(t *testing.T) {
	srv := newServer(t)
	c := newIntakeConn(t, srv)
	const size = 4 << 20
	baseline := func(name string, seed int) ([]byte, []byte) {
		_, h := openLineage(t, srv, name)
		enc := bigEncodedDiff(t, seed, size)
		binary.LittleEndian.PutUint32(enc[6:], 0) // checkpoint 0, whatever the seed
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, &wire.Frame{Type: wire.TPush, Lineage: h, Payload: wire.EncodePush(enc)}); err != nil {
			t.Fatal(err)
		}
		return enc, frame.Bytes()
	}
	_, warm := baseline("warm", 1)
	c.serve(t, warm)
	enc, frame := baseline("baseline", 2)
	alloc := allocated(func() { c.serve(t, frame) })
	t.Logf("ingesting a %d-byte baseline push: %d B allocated", size, alloc)
	if alloc > 256<<10 {
		t.Fatalf("ingesting a %d-byte baseline push allocated %d bytes, want at most 256 KiB", size, alloc)
	}
	ln, _ := openLineage(t, srv, "baseline")
	if got, err := ln.store.DiffBytes(0); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("stored baseline is not the pushed bytes (%v)", err)
	}
}

// TestNonCanonicalPushRefused: a diff whose header spells its raw data
// length otherwise than the encoder does (no codec, a raw length that
// is not the data section's) is refused at decode and nothing is
// appended; the same diff spelled canonically is then stored as the
// bytes that arrived, so its identical retry is a replay.
func TestNonCanonicalPushRefused(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("canon")}).Lineage
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodedDiff(t, 0, 7)
	odd := bytes.Clone(enc)
	binary.LittleEndian.PutUint64(odd[43:], 1) // the header's raw data length
	if _, err := checkpoint.DecodeBytes(odd); !errors.Is(err, checkpoint.ErrNonCanonical) {
		t.Fatalf("decode of the odd header: %v, want ErrNonCanonical", err)
	}
	for try := 0; try < 2; try++ {
		resp := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: h, Payload: wire.EncodePush(odd)})
		if resp.Status == wire.StatusOK || ln.store.Len() != 0 {
			t.Fatalf("push %d of a non-canonical header: status %d, lineage length %d", try, resp.Status, ln.store.Len())
		}
	}
	for try := 0; try < 2; try++ {
		resp := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: h, Payload: wire.EncodePush(enc)})
		if resp.Status != wire.StatusOK || ln.store.Len() != 1 {
			t.Fatalf("push %d of the canonical diff: status %d, lineage length %d", try, resp.Status, ln.store.Len())
		}
	}
	if got, err := ln.store.DiffBytes(0); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("stored bytes are not the pushed ones (%v)", err)
	}
}
