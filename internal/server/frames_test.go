package server

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// TestFrameMem: get hands out the smallest free buffer that fits and
// largest the largest; put keeps what it is given up to frameMemCap; a
// shared frame goes back with its last release.
func TestFrameMem(t *testing.T) {
	var m frameMem
	small, mid, big := make([]byte, 100), make([]byte, 3000), make([]byte, 5000)
	for _, b := range [][]byte{big, small, mid} {
		m.put(b)
	}
	if b := m.get(2000); &b[:1][0] != &mid[0] || len(b) != 2000 {
		t.Fatalf("get(2000) did not take the 3000-byte buffer")
	}
	if b := m.largest(); &b[:1][0] != &big[0] || len(b) != 0 {
		t.Fatalf("largest did not take the 5000-byte buffer")
	}
	if b := m.get(200); &b[:1][0] == &small[0] {
		t.Fatal("get(200) took a 100-byte buffer")
	}
	if m.held != cap(small) {
		t.Fatalf("held %d, want %d", m.held, cap(small))
	}
	m.put(make([]byte, frameMemCap))
	if m.held != cap(small) {
		t.Fatalf("put past the cap was kept: held %d", m.held)
	}

	// A shared frame goes back with its last release, and a release too
	// many panics rather than hand the buffer out twice.
	f := m.share([]byte("frame"))
	held := m.held
	f.retain()
	f.release()
	if m.held != held || m.shared.Load() != 1 {
		t.Fatalf("a held frame went back: held %d, %d references", m.held, m.shared.Load())
	}
	f.release()
	if m.held != held+cap(f.buf) || m.shared.Load() != 0 {
		t.Fatalf("the last release did not put the frame back: held %d, %d references", m.held, m.shared.Load())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a frame once more than it was retained did not panic")
		}
	}()
	f.release()
}

// streamBurst frames payloads as the TPushStream frames of checkpoints
// first, first+1, … of lineage h, back to back: written at once, they
// arrive together and stage as one run.
func streamBurst(t *testing.T, h uint32, first int, payloads [][]byte) []byte {
	t.Helper()
	var burst bytes.Buffer
	for i, p := range payloads {
		if err := wire.WriteFrame(&burst, &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(first + i), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	return burst.Bytes()
}

// runPayloads returns the push payloads of checkpoints first, first+1,
// … first+n-1: full diffs of size random bytes that depend only on the
// position in the run, so every run of the same shape carries the same
// data — a second run is all block-store hits, and allocates nothing
// for new blocks.
func runPayloads(t *testing.T, first, n, size int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(i))).Read(data)
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(first + i),
			DataLen: uint64(size), ChunkSize: 128, Data: data}
		var enc bytes.Buffer
		if err := d.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		payloads[i] = wire.EncodePush(enc.Bytes())
	}
	return payloads
}

// sendRun writes a burst of n frames from checkpoint first while it
// reads their acks, each of which must be OK.
func sendRun(t *testing.T, conn net.Conn, burst []byte, first, n int) {
	t.Helper()
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(burst)
		wrote <- err
	}()
	for ck := first; ck < first+n; ck++ {
		if ack, err := wire.ReadFrame(conn, 0); err != nil || ack.Status != wire.StatusOK {
			t.Fatalf("ack %d: %+v, %v", ck, ack, err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// TestStreamIntakeRecyclesStaging: with no subscriber, a staged run is
// copied into staging from the server's free list, which goes back when
// the run settles. A second run of the same frames (ids aside) on the
// connection allocates next to nothing for its payload bytes, where a
// copy per frame would allocate all of them again. The connection is a
// net.Pipe, so both runs reach the server in the same pieces and stage
// in the same groups.
func TestStreamIntakeRecyclesStaging(t *testing.T) {
	conn := startPipeServer(t, Config{Root: t.TempDir()}).dial(t)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("recycle")}).Lineage
	const n, size = 16, 256 << 10
	first := streamBurst(t, h, 0, runPayloads(t, 0, n, size))
	payloads := runPayloads(t, n, n, size)
	second, payloadBytes := streamBurst(t, h, n, payloads), 0
	for _, p := range payloads {
		payloadBytes += len(p)
	}

	sendRun(t, conn, first, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sendRun(t, conn, second, n, n)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(payloadBytes)/20 {
		t.Fatalf("the second run allocated %d bytes for %d payload bytes, want under 5%%", alloc, payloadBytes)
	}
}

// TestRaceStagingRecycle: staging reaches subscribers by reference and
// is reused only once nobody holds it. The first runs are staged in
// process with a subscriber registered between check and publish, which
// keeps every event it gets; the rest stream over one connection while
// subscribers register and unregister beside them, each checking and
// releasing what it got as it gets it. The kept payloads must still be
// the pushed bytes after all later runs have reused the staging, and
// every stored diff must be too.
func TestRaceStagingRecycle(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("recycle")}).Lineage
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	const runs, n, size = 6, 8, 16 << 10
	want := make([][]byte, 2*runs*n)
	for ck := range want {
		want[ck] = wire.EncodePush(bigEncodedDiff(t, ck, size))
	}
	var got []tailEvent

	// In process: the subscriber arrives between check and publish.
	sink, peer := net.Pipe()
	defer sink.Close()
	defer peer.Close()
	bw := bufio.NewWriter(io.Discard)
	for r := 0; r < runs; r++ {
		var run stagedRun
		for ck := r * n; ck < (r+1)*n; ck++ {
			if err := srv.serveStream(&run, &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: want[ck]}, bw, sink); err != nil {
				t.Fatal(err)
			}
		}
		if len(run.batch) != n || run.batch[0].staged == nil {
			t.Fatalf("run %d: %d frames staged, want %d in free-list staging", r, len(run.batch), n)
		}
		sub := srv.hub.register(ln, n)
		if err := srv.settle(&run, bw, sink); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got = append(got, <-sub.ch)
		}
		srv.hub.unregister(ln, sub)
	}

	// Over the connection, with subscribers coming and going.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sub := srv.hub.register(ln, len(want)) // never full: nothing is shed
			runtime.Gosched()
			for len(sub.ch) > 0 {
				ev := <-sub.ch
				if !bytes.Equal(ev.frame.buf, want[ev.ckpt]) {
					t.Errorf("checkpoint %d reached a subscriber damaged", ev.ckpt)
				}
				ev.frame.release()
			}
			srv.hub.unregister(ln, sub)
		}
	}()
	stopChurn := sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
	defer stopChurn()
	for first := runs * n; first < len(want); first += n {
		sendRun(t, conn, streamBurst(t, h, first, want[first:first+n]), first, n)
	}
	stopChurn()

	for _, ev := range got {
		if !bytes.Equal(ev.frame.buf, want[ev.ckpt]) {
			t.Fatalf("checkpoint %d: the subscriber's payload changed while it held it", ev.ckpt)
		}
		ev.frame.release()
	}
	if refs := srv.frames.shared.Load(); refs != 0 {
		t.Fatalf("%d references to staging still held", refs)
	}
	for ck := range want {
		stored, err := ln.store.DiffBytes(ck)
		if err != nil || !bytes.Equal(stored, want[ck][wire.PushChecksumSize:]) {
			t.Fatalf("stored diff %d: %v", ck, err)
		}
	}
}
