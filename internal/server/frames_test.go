package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// TestFrameMem: get hands out the smallest free buffer that holds n,
// else the largest, else nothing — it never allocates — and largest the
// largest; put keeps what it is given from frameMemMin up to
// frameMemCap.
func TestFrameMem(t *testing.T) {
	var m frameMem
	small, mid, big := make([]byte, frameMemMin), make([]byte, 3*frameMemMin), make([]byte, 5*frameMemMin)
	for _, b := range [][]byte{big, small, mid} {
		m.put(b)
	}
	if b := m.get(2 * frameMemMin); &b[:1][0] != &mid[0] || len(b) != 0 {
		t.Fatalf("get(%d) did not take the %d-byte buffer", 2*frameMemMin, len(mid))
	}
	if b := m.largest(); &b[:1][0] != &big[0] || len(b) != 0 {
		t.Fatalf("largest did not take the %d-byte buffer", len(big))
	}
	if b := m.get(2 * frameMemMin); &b[:1][0] != &small[0] || len(b) != 0 {
		t.Fatalf("get(%d) with no buffer that holds it did not take the largest", 2*frameMemMin)
	}
	if b := m.get(1); b != nil || m.held != 0 {
		t.Fatalf("get from an empty list returned %d bytes, held %d", cap(b), m.held)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.put(m.get(1 << 20)) }); allocs != 0 {
		t.Fatalf("get allocated %.0f times", allocs)
	}
	m.put(small)
	m.put(make([]byte, frameMemCap))
	if m.held != cap(small) {
		t.Fatalf("put past the cap was kept: held %d", m.held)
	}
	m.put(make([]byte, frameMemMin-1))
	m.put(nil)
	if m.held != cap(small) {
		t.Fatalf("put of less than frameMemMin changed held to %d", m.held)
	}
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

// TestStreamIntakeRecyclesStaging: with no subscriber, a staged run
// stages each frame in the buffer it was read into, and the
// connection reads on into one from the server's free list, to which
// the staging goes back when the run settles. A second run of the
// same frames (ids aside) on the connection allocates next to nothing
// for its payload bytes, where a copy per frame would allocate all of
// them again. The connection is a net.Pipe, so both runs reach the
// server in the same pieces and stage in the same groups.
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

// TestRaceStagingRecycle: a run's staging goes back to the free list
// when the run settles, before the lineage's subscribers are woken,
// and the next run reuses it at once. The first runs are staged in
// process through the connection's read buffer, with a subscriber
// registered between check and settle: once settle returns, the
// subscriber holds a wake and the list holds every buffer of the run,
// its whole capacity. The rest stream over one connection while
// subscriptions come and go beside them, each checking what it is
// sent against the pushed bytes while later runs reuse the staging;
// every stored diff must still be the pushed bytes too.
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
	held := func() int {
		srv.frames.mu.Lock()
		defer srv.frames.mu.Unlock()
		return srv.frames.held
	}

	// In process: the subscriber arrives between check and settle.
	sink, peer := net.Pipe()
	defer sink.Close()
	defer peer.Close()
	bw := bufio.NewWriter(io.Discard)
	var scratch []byte
	for r := 0; r < runs; r++ {
		var run stagedRun
		for ck := r * n; ck < (r+1)*n; ck++ {
			req := &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: readInto(&scratch, want[ck])}
			if err := srv.serveStream(&run, req, &scratch, bw, sink); err != nil {
				t.Fatal(err)
			}
		}
		if len(run.batch) != n || run.batch[0].staging == nil {
			t.Fatalf("run %d: %d frames staged, want %d in their read buffers", r, len(run.batch), n)
		}
		staged := 0
		for _, p := range run.batch {
			staged += cap(p.staging)
		}
		sub := srv.hub.register(ln)
		before := held()
		if err := srv.settle(&run, bw, sink); err != nil {
			t.Fatal(err)
		}
		if got := held() - before; got != staged || len(run.batch) != 0 {
			t.Fatalf("run %d: settling gave the list %d bytes and left %d frames staged, want %d and none", r, got, len(run.batch), staged)
		}
		select {
		case <-sub:
		default:
			t.Fatalf("run %d settled without waking its subscriber", r)
		}
		srv.hub.unregister(ln, sub)
	}

	// Over the connection, with subscriptions coming and going.
	churn := func() error {
		sc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer sc.Close()
		sc.SetDeadline(time.Now().Add(10 * time.Second))
		if err := wire.Handshake(sc); err != nil {
			return err
		}
		open, err := roundTrip(sc, &wire.Frame{Type: wire.TOpen, Payload: []byte("recycle")})
		if err != nil {
			return err
		}
		cur := wire.Pull{From: open.Ckpt}
		if cur.From > 0 {
			cur.CRC = wire.Checksum(want[cur.From-1][wire.PushChecksumSize:])
		}
		if err := wire.WriteFrame(sc, followReq(open.Lineage, cur)); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			sc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			fr, err := wire.ReadFrame(sc, 0)
			if err != nil {
				return nil // nothing more arrived in time
			}
			if fr.Type != wire.TPull || fr.Status != wire.StatusOK || int(fr.Ckpt) >= len(want) || !bytes.Equal(fr.Payload, want[fr.Ckpt]) {
				return fmt.Errorf("frame type %#x ckpt %d reached a subscriber damaged", fr.Type, fr.Ckpt)
			}
		}
		return nil
	}
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
			if err := churn(); err != nil {
				t.Error(err)
				return
			}
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

	for ck := range want {
		stored, err := ln.store.DiffBytes(ck)
		if err != nil || !bytes.Equal(stored, want[ck][wire.PushChecksumSize:]) {
			t.Fatalf("stored diff %d: %v", ck, err)
		}
	}
}

// roundTrip writes req on conn and reads the frame that answers it.
func roundTrip(conn net.Conn, req *wire.Frame) (*wire.Frame, error) {
	if err := wire.WriteFrame(conn, req); err != nil {
		return nil, err
	}
	return wire.ReadFrame(conn, 0)
}

// readInto puts payload where a connection's read leaves it: in
// *scratch, replaced by an exact-size buffer when too small, as a read
// grows one (wire.ReadFrameSpare).
func readInto(scratch *[]byte, payload []byte) []byte {
	if cap(*scratch) < len(payload) {
		*scratch = make([]byte, len(payload))
	}
	*scratch = append((*scratch)[:0], payload...)
	return *scratch
}

// TestStagedRunCountsCapacity: a staged run is bounded by the capacity
// of its staging, not by its payload bytes. With the free list warmed
// with buffers far larger than the frames, a back-to-back run settles
// before the capacity it holds staged reaches streamBatchBytes, where
// counting payload bytes would stage every frame; with right-sized
// buffers, a run commits exactly where counting payload bytes does.
func TestStagedRunCountsCapacity(t *testing.T) {
	// commits serves payloads, ids from 0, as back-to-back stream frames
	// through the connection's read buffer and returns how many frames
	// each commit took, failing if a run is ever left holding
	// streamBatchBytes of staging.
	commits := func(t *testing.T, srv *Server, h uint32, payloads [][]byte) []int {
		sink, peer := net.Pipe()
		defer sink.Close()
		defer peer.Close()
		bw := bufio.NewWriter(io.Discard)
		var run stagedRun
		var scratch []byte
		var took []int
		staged := 0
		for ck, p := range payloads {
			req := &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: readInto(&scratch, p)}
			if err := srv.serveStream(&run, req, &scratch, bw, sink); err != nil {
				t.Fatal(err)
			}
			capacity := 0
			for _, q := range run.batch {
				capacity += cap(q.staging)
			}
			if capacity >= streamBatchBytes {
				t.Fatalf("frame %d: the run holds %d bytes of staging, cap %d", ck, capacity, streamBatchBytes)
			}
			if staged++; len(run.batch) == 0 {
				took, staged = append(took, staged), 0
			}
		}
		if err := srv.settle(&run, bw, sink); err != nil {
			t.Fatal(err)
		}
		if staged > 0 {
			took = append(took, staged)
		}
		return took
	}
	// byPayload is where a run of payloads commits when it counts
	// decoded payload bytes.
	byPayload := func(payloads [][]byte) []int {
		var took []int
		frames, bytes := 0, 0
		for _, p := range payloads {
			frames, bytes = frames+1, bytes+len(p)-wire.PushChecksumSize
			if frames == streamBatchFrames || bytes >= streamBatchBytes {
				took, frames, bytes = append(took, frames), 0, 0
			}
		}
		if frames > 0 {
			took = append(took, frames)
		}
		return took
	}
	open := func(t *testing.T) (*Server, uint32) {
		srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
		t.Cleanup(stop)
		conn := testConn(t, addr)
		t.Cleanup(func() { conn.Close() })
		return srv, call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("capacity")}).Lineage
	}

	t.Run("oversized", func(t *testing.T) {
		srv, h := open(t)
		warmFrames(srv, 20, 1<<20)
		payloads := runPayloads(t, 0, 40, 64<<10)
		took := commits(t, srv, h, payloads)
		t.Logf("frames per commit: %v; by payload bytes: %v", took, byPayload(payloads))
		if len(took) < 3 {
			t.Fatalf("frames per commit %v: the run did not settle on the capacity it staged", took)
		}
	})

	t.Run("right-sized", func(t *testing.T) {
		srv, h := open(t)
		payloads := runPayloads(t, 0, 20, 1<<20)
		took, want := commits(t, srv, h, payloads), byPayload(payloads)
		if !slices.Equal(took, want) {
			t.Fatalf("frames per commit %v, want %v as by payload bytes", took, want)
		}
	})
}

// TestRequestConnTakesNoListBuffer: only a connection that has staged a
// stream frame draws its read buffer from the free list. Requests
// answered within themselves — TOpen, TList, TStats, TPush — leave the
// list's largest buffer where it is, for the next span pull to take.
func TestRequestConnTakesNoListBuffer(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	big := make([]byte, 1<<20)
	srv.frames.put(big)
	conn := testConn(t, addr)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("requests")}).Lineage
	for _, req := range []*wire.Frame{
		{Type: wire.TList},
		{Type: wire.TStats},
		{Type: wire.TPush, Lineage: h, Payload: wire.EncodePush(bigEncodedDiff(t, 0, 64<<10))},
		{Type: wire.TOpen, Payload: []byte("requests")},
	} {
		if resp := call(t, conn, req); resp.Status != wire.StatusOK {
			t.Fatalf("request %#x: %s", req.Type, resp.Payload)
		}
	}
	if b := srv.frames.largest(); cap(b) == 0 || &b[:1][0] != &big[0] {
		t.Fatalf("the list's largest buffer is %d bytes, not the %d-byte one a pull would take", cap(b), cap(big))
	}
}

// TestTornRunReturnsBuffers: a connection that tears mid-frame after k
// staged frames commits none of them, and every buffer comes back —
// the run's staging and the buffer the connection was reading the torn
// frame into — each once. The k frames and the torn one arrive in one
// piece, so the run never settles before the tear.
func TestTornRunReturnsBuffers(t *testing.T) {
	const k, size = 3, 16 << 10
	l := startPipeServer(t, Config{Root: t.TempDir()})
	pusher := l.dial(t)
	defer pusher.Close()
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("torn")}).Lineage
	ln, err := l.srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	payloads := runPayloads(t, 0, k+1, size)
	warm := warmFrames(l.srv, k, len(payloads[0]))
	burst := streamBurst(t, h, 0, payloads)
	if _, err := pusher.Write(burst[:len(burst)-size/2]); err != nil {
		t.Fatal(err)
	}
	pusher.Close()
	// The first frame was read into a buffer of its own, the rest into
	// buffers from the list: k+1 of the frame's size in all.
	waitFree(t, l.srv, warm+len(payloads[0]))
	if n := ln.store.Len(); n != 0 {
		t.Fatalf("the torn run left the lineage %d long, want 0", n)
	}
}

// TestPullHandsBackOutgrownBuffer: a span stream whose diff outgrows the
// buffer it took from the free list hands that buffer back, beside the
// one the diff was reassembled in once the stream ends, and the list
// holds neither twice.
func TestPullHandsBackOutgrownBuffer(t *testing.T) {
	const blocks = 64
	srv, h, _ := pullServer(t, blocks)
	small := make([]byte, frameMemMin)
	srv.frames.put(small)
	conn, bw := discardSink(t)
	if !srv.servePull(context.Background(), nil, conn, nil, bw, pullSpan(h, 0, 1)) {
		t.Fatal("the pull consumed the connection")
	}
	listed := freeBytes(t, srv) // fails on a buffer listed twice
	var caps []int
	hasSmall := false
	srv.frames.mu.Lock()
	for _, class := range srv.frames.free {
		for _, b := range class {
			caps = append(caps, cap(b))
			hasSmall = hasSmall || &b[:1][0] == &small[0]
		}
	}
	srv.frames.mu.Unlock()
	if len(caps) != 2 || !hasSmall || max(caps[0], caps[1]) < blocks*4096 || listed != caps[0]+caps[1] {
		t.Fatalf("after pulling a %d-byte diff the free list holds buffers of %v bytes, want the %d-byte one it lent and the frame's", blocks*4096, caps, len(small))
	}
}
