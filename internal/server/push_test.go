package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
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
func rotatedDiff(t testing.TB, ck, chunks int) []byte {
	t.Helper()
	g := merkle.NewGeometry(chunks)
	d := &checkpoint.Diff{Method: checkpoint.MethodList, CkptID: uint32(ck), DataLen: uint64(8 * chunks), ChunkSize: 8}
	for c := range chunks {
		d.ShiftDupl = d.ShiftDupl.Append(checkpoint.ShiftRegion{
			Node: uint32(g.LeafNode(c)), SrcNode: uint32(g.LeafNode((c + 1) % chunks))})
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIntakeWritesRegionListsInPlace: on a warm server, check and
// commit of a stream frame carrying 1.5 MiB of region metadata allocate
// next to nothing — decode aliases the lists in the run's staging and
// the store writes them from there — and the stored bytes are the
// pushed ones, also once that staging, back on the free list, has been
// overwritten.
func TestIntakeWritesRegionListsInPlace(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("lists")}).Lineage
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 128 << 10 // 1.5 MiB of shift regions a diff
	want := [][]byte{bigEncodedDiff(t, 0, 8*chunks), rotatedDiff(t, 1, chunks), rotatedDiff(t, 2, chunks)}
	payloads := make([][]byte, len(want))
	for ck, enc := range want {
		payloads[ck] = wire.EncodePush(enc)
	}

	sink, peer := net.Pipe()
	defer sink.Close()
	defer peer.Close()
	bw := bufio.NewWriter(io.Discard)
	var scratch []byte
	read := func(ck int) { scratch = append(scratch[:0], payloads[ck]...) }
	stage := func(ck int) {
		var run stagedRun
		req := &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: scratch}
		if err := srv.serveStream(&run, req, &scratch, bw, sink); err != nil {
			t.Fatal(err)
		}
		if len(run.batch) != 1 || run.batch[0].staging == nil {
			t.Fatalf("diff %d was not staged", ck)
		}
		if err := srv.settle(&run, bw, sink); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	stage(0)
	read(1)
	stage(1)
	read(2) // outside the measurement: the connection's read of the frame
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stage(2)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("check and commit of a %d-byte diff: %d B allocated", len(want[2]), alloc)
	if alloc >= 64<<10 {
		t.Fatalf("check and commit of a %d-byte diff allocated %d bytes, want under 64 KiB", len(want[2]), alloc)
	}

	staging := srv.frames.largest()
	if cap(staging) < len(want[2]) {
		t.Fatalf("the run's staging is not back on the free list (largest %d bytes)", cap(staging))
	}
	staging = staging[:cap(staging)]
	for i := range staging {
		staging[i] = 0xA5
	}
	srv.frames.put(staging)
	for ck, enc := range want {
		if got, err := ln.store.DiffBytes(ck); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("stored diff %d is not the pushed bytes (%v)", ck, err)
		}
	}
}

// TestStagedFrameIsTheReadBuffer: a staged stream frame is the buffer
// the connection read it into, handed over, not a copy: its staging
// starts at the read buffer's first byte, check and commit of a 1 MiB
// frame on a warm server allocate next to nothing, and whatever the
// connection reads next — 0xA5 over the whole buffer it reads on into —
// leaves the committed bytes the pushed ones.
func TestStagedFrameIsTheReadBuffer(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("handover")}).Lineage
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	// A baseline, then two 1 MiB diffs of shifted duplicates only: region
	// metadata, which the store writes with no block to intern.
	const chunks = (1 << 20) / 12
	payloads := [][]byte{
		wire.EncodePush(bigEncodedDiff(t, 0, 8*chunks)),
		wire.EncodePush(rotatedDiff(t, 1, chunks)),
		wire.EncodePush(rotatedDiff(t, 2, chunks)),
	}

	sink, peer := net.Pipe()
	defer sink.Close()
	defer peer.Close()
	bw := bufio.NewWriter(io.Discard)
	var run stagedRun
	var scratch []byte
	serve := func(ck int) {
		req := &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: scratch}
		if err := srv.serveStream(&run, req, &scratch, bw, sink); err != nil {
			t.Fatal(err)
		}
	}
	settle := func() {
		if err := srv.settle(&run, bw, sink); err != nil {
			t.Fatal(err)
		}
	}
	for ck := range 2 {
		readInto(&scratch, payloads[ck])
		serve(ck)
		settle() // the frame's buffer is on the free list now
	}

	read := readInto(&scratch, payloads[2])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	serve(2)
	if len(run.batch) != 1 || &run.batch[0].staging[0] != &read[0] {
		t.Fatal("the staged frame is not the buffer it was read into")
	}
	next := scratch[:cap(scratch)]
	if len(next) < len(payloads[2]) || &next[0] == &read[0] {
		t.Fatalf("the connection reads on into %d bytes, want a buffer of its own that holds %d", len(next), len(payloads[2]))
	}
	for i := range next {
		next[i] = 0xA5
	}
	settle()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("check and commit of a %d-byte stream frame: %d B allocated", len(payloads[2]), alloc)
	if alloc >= 4<<10 {
		t.Fatalf("check and commit of a %d-byte stream frame allocated %d bytes, want under 4 KiB", len(payloads[2]), alloc)
	}
	for ck, p := range payloads {
		if got, err := ln.store.DiffBytes(ck); err != nil || !bytes.Equal(got, p[wire.PushChecksumSize:]) {
			t.Fatalf("stored diff %d is not the pushed bytes (%v)", ck, err)
		}
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
