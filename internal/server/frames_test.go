package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// TestFrameMem: largest hands out the largest free buffer, else
// nothing — it never allocates; put keeps what it is given from
// frameMemMin up to frameMemCap.
func TestFrameMem(t *testing.T) {
	var m frameMem
	small, mid, big := make([]byte, frameMemMin), make([]byte, 3*frameMemMin), make([]byte, 5*frameMemMin)
	for _, b := range [][]byte{mid, big, small} {
		m.put(b)
	}
	for _, want := range [][]byte{big, mid, small} {
		if b := m.largest(); &b[:1][0] != &want[0] || len(b) != 0 {
			t.Fatalf("largest did not take the %d-byte buffer", len(want))
		}
	}
	if b := m.largest(); b != nil || m.held != 0 {
		t.Fatalf("largest of an empty list returned %d bytes, held %d", cap(b), m.held)
	}
	m.put(big)
	if allocs := testing.AllocsPerRun(10, func() { m.put(m.largest()) }); allocs != 0 {
		t.Fatalf("largest allocated %.0f times", allocs)
	}
	m.largest()
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

// TestRaceRunMemoryReuse: the memory a connection reads a run's
// region lists into is reused run after run, and no record or
// subscriber aliases it past its settle. Runs of diffs with region
// lists stream over one connection while subscriptions come and go
// beside them, each checking what it is sent against the pushed bytes;
// every stored diff must still be the pushed bytes too.
func TestRaceRunMemoryReuse(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("reuse")}).Lineage
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	const runs, n, chunks = 6, 8, 4 << 10
	want := make([][]byte, runs*n)
	want[0] = wire.EncodePush(bigEncodedDiff(t, 0, 8*chunks))
	for ck := 1; ck < len(want); ck++ {
		want[ck] = wire.EncodePush(rotatedDiffBy(t, ck, chunks, ck)) // lists that differ diff by diff
	}

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
		open, err := roundTrip(sc, &wire.Frame{Type: wire.TOpen, Payload: []byte("reuse")})
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
	for first := 0; first < len(want); first += n {
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

// TestRequestConnTakesNoListBuffer: the intake does not draw on the
// free list. Requests answered within themselves — TOpen, TList,
// TStats, TPush — leave the list's largest buffer where it is, for the
// next span pull to take.
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

// intakeConn is a connection's intake driven in process: frames read
// from a buffer through the same bufio.Reader a connection reads with,
// and acks to a writer nobody reads.
type intakeConn struct {
	srv  *Server
	run  stagedRun
	br   *bufio.Reader
	src  *bytes.Reader
	bw   *bufio.Writer
	sink net.Conn
	hdr  []byte
}

func newIntakeConn(t testing.TB, srv *Server) *intakeConn {
	sink, peer := net.Pipe()
	t.Cleanup(func() { sink.Close(); peer.Close() })
	c := &intakeConn{srv: srv, src: bytes.NewReader(nil), bw: bufio.NewWriter(io.Discard), sink: sink}
	c.br = bufio.NewReaderSize(c.src, connBufSize)
	return c
}

// serve reads every frame of stream through the intake, as the
// connection's loop does; what stays staged stays staged. It returns
// how many frames the run held after each frame.
func (c *intakeConn) serve(t testing.TB, stream []byte) []int {
	t.Helper()
	c.src.Reset(stream)
	c.br.Reset(c.src)
	var req wire.Frame
	var held []int
	for c.br.Buffered() > 0 || c.src.Len() > 0 {
		n, err := wire.ReadFrameHeader(c.br, 0, &req, &c.hdr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.srv.intake(&c.run, &req, n, c.br, c.bw, c.sink); err != nil {
			t.Fatal(err)
		}
		held = append(held, len(c.run.diffs))
	}
	return held
}

// settle settles what the run holds.
func (c *intakeConn) settle(t testing.TB) {
	t.Helper()
	if err := c.srv.settle(&c.run, c.bw, c.sink); err != nil {
		t.Fatal(err)
	}
}

// openLineage opens lineage name on srv in process and returns it with
// its handle.
func openLineage(t testing.TB, srv *Server, name string) (*lineage, uint32) {
	t.Helper()
	h, _, _, err := srv.open(name)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	return ln, h
}

// newServer returns a server over a fresh root that serves nothing: its
// intake is driven in process.
func newServer(t testing.TB) *Server {
	t.Helper()
	srv, err := New(quiet(Config{Root: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestStagedRunCountsCapacity: a run holds only its records, so the
// capacity it counts toward streamBatchBytes is the region lists and
// bitmaps it holds, not the data its frames carry. Oversized records —
// diffs of 1.5 MiB of region lists each — settle every time the lists
// reach streamBatchBytes; right-sized ones — twenty 1 MiB data frames,
// more than streamBatchBytes of data — stage as one run.
func TestStagedRunCountsCapacity(t *testing.T) {
	t.Run("oversized", func(t *testing.T) {
		srv := newServer(t)
		_, h := openLineage(t, srv, "caps")
		c := newIntakeConn(t, srv)
		const chunks = 128 << 10 // 1.5 MiB of shift regions a diff
		lists := make([][]byte, 12)
		for i := range lists {
			lists[i] = wire.EncodePush(rotatedDiff(t, i, chunks))
		}
		held := c.serve(t, streamBurst(t, h, 0, lists))
		perRun := (streamBatchBytes + 12*chunks - 1) / (12 * chunks)
		if held[perRun-2] != perRun-1 || held[perRun-1] != 0 {
			t.Fatalf("1.5 MiB region-list frames staged as %v, want a settle at frame %d", held, perRun)
		}
		c.settle(t)
	})

	t.Run("right-sized", func(t *testing.T) {
		srv := newServer(t)
		ln, h := openLineage(t, srv, "caps")
		c := newIntakeConn(t, srv)
		const frames = 20
		held := c.serve(t, streamBurst(t, h, 0, runPayloads(t, 0, frames, 1<<20)))
		if held[frames-1] != frames {
			t.Fatalf("20 data frames of 1 MiB staged as runs of %v, want one run", held)
		}
		c.settle(t)
		if n := ln.store.Len(); n != frames {
			t.Fatalf("the run left the lineage %d long, want %d", n, frames)
		}
	})
}

// TestTornRunReturnsPins: a connection that tears mid-frame after k
// staged frames commits none of them and unpins every block the run
// wrote, the torn frame's included: a GC right after the tear reclaims
// them all, and the lineage is as long as before.
func TestTornRunReturnsPins(t *testing.T) {
	const k, size = 3, 16 << 10
	l := startPipeServer(t, Config{Root: t.TempDir()})
	pusher := l.dial(t)
	defer pusher.Close()
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("torn")}).Lineage
	ln, err := l.srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	burst := streamBurst(t, h, 0, runPayloads(t, 0, k+1, size))
	if _, err := pusher.Write(burst[:len(burst)-size/2]); err != nil {
		t.Fatal(err)
	}
	pusher.Close()
	wrote := k * size / 4096
	deadline := time.Now().Add(10 * time.Second)
	for l.srv.blocks.Stats().Blocks < wrote {
		if time.Now().After(deadline) {
			t.Fatalf("the run wrote %d blocks, want at least %d", l.srv.blocks.Stats().Blocks, wrote)
		}
		time.Sleep(time.Millisecond)
	}
	// Until the connection has gone, its pins keep the blocks.
	for l.srv.CollectBlocks(); l.srv.blocks.Stats().Blocks > 0; l.srv.CollectBlocks() {
		if time.Now().After(deadline) {
			t.Fatalf("GCs after the tear keep %d blocks", l.srv.blocks.Stats().Blocks)
		}
		time.Sleep(time.Millisecond)
	}
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
