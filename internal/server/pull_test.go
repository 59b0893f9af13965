package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// pullSpan builds the TPull request for the span [from, to).
func pullSpan(h, from, to uint32) *wire.Frame {
	return &wire.Frame{Type: wire.TPull, Lineage: h, Ckpt: from, Payload: wire.AppendPull(nil, wire.Pull{From: from, To: to})}
}

// pushChain opens lineage name on conn and pushes n tagged diffs of
// size bytes each, every 4 KiB block of a diff distinct; it returns the
// handle and the encoded diffs.
func pushChain(t *testing.T, conn net.Conn, name string, n, size int) (uint32, [][]byte) {
	t.Helper()
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte(name)})
	if open.Status != wire.StatusOK {
		t.Fatalf("open: %s", open.Payload)
	}
	encs := make([][]byte, n)
	for k := range encs {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(k+1) + byte(i/4096)<<4
		}
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(k), DataLen: uint64(size), ChunkSize: 16, Data: data}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		encs[k] = buf.Bytes()
		push := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: uint32(k), Payload: wire.EncodePush(encs[k])})
		if push.Status != wire.StatusOK {
			t.Fatalf("push %d: %s", k, push.Payload)
		}
	}
	return open.Lineage, encs
}

// readFrame reads the next frame of a span stream.
func readFrame(t *testing.T, conn net.Conn) *wire.Frame {
	t.Helper()
	f, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestServerPullSpan: one request, one frame per checkpoint, in id
// order and byte-exact; a malformed or unservable span is one typed
// error frame; either way the connection is back in request mode.
func TestServerPullSpan(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h, encs := pushChain(t, conn, "lin", 6, 64)

	if err := wire.WriteFrame(conn, pullSpan(h, 1, 5)); err != nil {
		t.Fatal(err)
	}
	for ck := 1; ck < 5; ck++ {
		f := readFrame(t, conn)
		if f.Type != wire.TPull || f.Status != wire.StatusOK || f.Lineage != h || f.Ckpt != uint32(ck) || !bytes.Equal(f.Payload, wire.EncodePush(encs[ck])) {
			t.Fatalf("frame for checkpoint %d: %+v", ck, f)
		}
	}
	for name, req := range map[string]*wire.Frame{
		"no payload":      {Type: wire.TPull, Lineage: h, Ckpt: 0},
		"empty span":      pullSpan(h, 3, 3),
		"reversed span":   pullSpan(h, 4, 2),
		"past the length": pullSpan(h, 4, 7),
		"unknown handle":  pullSpan(99, 0, 1),
	} {
		resp := call(t, conn, req)
		if resp.Type != wire.TPull || resp.Status == wire.StatusOK || resp.Status == wire.StatusSpanMoved {
			t.Fatalf("%s: %+v", name, resp)
		}
	}
	if open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("lin")}); open.Status != wire.StatusOK || open.Ckpt != 6 {
		t.Fatalf("request after the streams: %+v", open)
	}
}

// TestServerPullSpanRot: a diff is verified in full before any of its
// bytes are sent. Rot in the last block of checkpoint 2 ends a span
// stream with a typed error frame naming checkpoint 2; the frames
// before it are whole and good, nothing of the damaged diff was sent,
// and the connection keeps serving.
func TestServerPullSpanRot(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	h, encs := pushChain(t, conn, "lin", 4, 3*4096)

	// Every diff is three blocks of its own; flip the last byte of the
	// last block checkpoint 2 references.
	tail := encs[2][len(encs[2])-4096:]
	path, off, length, err := srv.blocks.Locate(blockstore.IDOf(tail))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{^tail[4095]}, off+length-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := wire.WriteFrame(conn, pullSpan(h, 0, 4)); err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 2; ck++ {
		if f := readFrame(t, conn); f.Status != wire.StatusOK || f.Ckpt != uint32(ck) || !bytes.Equal(f.Payload, wire.EncodePush(encs[ck])) {
			t.Fatalf("frame before the damage, checkpoint %d: %+v", ck, f)
		}
	}
	bad := readFrame(t, conn)
	if bad.Type != wire.TPull || bad.Status != wire.StatusErr || bad.Ckpt != 2 ||
		!strings.Contains(string(bad.Payload), "diff 2") || !strings.Contains(string(bad.Payload), "is corrupt") {
		t.Fatalf("frame for the rotten checkpoint: %+v (%s)", bad, bad.Payload)
	}
	// The stream is over: the next frame on the wire answers the next
	// request, and the undamaged diffs still serve.
	if pull := call(t, conn, pullOne(h, 3)); pull.Status != wire.StatusOK || !bytes.Equal(pull.Payload, wire.EncodePush(encs[3])) {
		t.Fatalf("pull past the damage: %+v", pull)
	}
}

// pipeListener hands the server in-memory connections. A net.Pipe has
// no buffer, so a server write is parked exactly as long as the test
// does not read — the deterministic stand-in for a reader whose socket
// buffers are full.
type pipeListener struct {
	srv      *Server
	shutdown func() // stops Serve and closes srv; at cleanup if not before
	conns    chan net.Conn
	done     chan struct{}
	once     sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// startPipeServer serves a new server on a pipeListener until the test
// ends.
func startPipeServer(t *testing.T, cfg Config) *pipeListener {
	t.Helper()
	srv, err := New(quiet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ln := &pipeListener{srv: srv, conns: make(chan net.Conn), done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	ln.shutdown = sync.OnceFunc(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("Close returned %v", err)
		}
	})
	t.Cleanup(ln.shutdown)
	return ln
}

// dial opens one handshaken connection to the server behind l.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	c, s := net.Pipe()
	l.conns <- s
	c.SetDeadline(time.Now().Add(20 * time.Second))
	if err := wire.Handshake(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRacePullDoesNotBlockPush: a span stream holds no lineage lock.
// With a stream parked mid-frame on a reader that is not reading, a
// push to the same lineage is durably acked, and so is a compaction —
// after which the parked stream, resumed, finishes the frame it had
// verified and then ends with StatusSpanMoved instead of mixing
// generations.
func TestRacePullDoesNotBlockPush(t *testing.T) {
	ln := startPipeServer(t, Config{Root: t.TempDir()})
	writer := ln.dial(t)
	defer writer.Close()
	// Frames larger than the server's write buffer, so the first one
	// already has to reach the (unbuffered) connection.
	h, encs := pushChain(t, writer, "lin", 6, 2*connBufSize)

	reader := ln.dial(t)
	defer reader.Close()
	if err := wire.WriteFrame(reader, pullSpan(h, 0, 6)); err != nil {
		t.Fatal(err)
	}
	// Take the first frame's header and stop: the server is now parked
	// in the write of that frame's payload, five frames still to go.
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(reader, hdr[:]); err != nil {
		t.Fatal(err)
	}

	d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: 6, DataLen: uint64(2 * connBufSize), ChunkSize: 16,
		Data: bytes.Repeat([]byte{7}, 2*connBufSize)}
	var enc bytes.Buffer
	if err := d.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if push := call(t, writer, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: 6, Payload: wire.EncodePush(enc.Bytes())}); push.Status != wire.StatusOK || push.Ckpt != 7 {
		t.Fatalf("push while a span stream is parked: %+v (%s)", push, push.Payload)
	}
	if comp := call(t, writer, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 3}); comp.Status != wire.StatusOK {
		t.Fatalf("compaction while a span stream is parked: %s", comp.Payload)
	}

	// Resume. The parked frame was verified, whole, before its first
	// byte left: it completes byte-exact.
	payload := make([]byte, wire.PushChecksumSize+len(encs[0]))
	if _, err := io.ReadFull(reader, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, wire.EncodePush(encs[0])) {
		t.Fatal("the frame parked across the compaction arrived damaged")
	}
	moved := readFrame(t, reader)
	if moved.Type != wire.TPull || moved.Status != wire.StatusSpanMoved || moved.Ckpt != 1 {
		t.Fatalf("frame after the fold: %+v (%s), want StatusSpanMoved for checkpoint 1", moved, moved.Payload)
	}
	// Request mode again: what the lineage holds now is pullable, and a
	// span that starts below the new baseline is refused as moved.
	if open := call(t, reader, &wire.Frame{Type: wire.TOpen, Payload: []byte("lin")}); open.Status != wire.StatusOK || open.Ckpt != 7 {
		t.Fatalf("open after the stream: %+v", open)
	}
	if resp := call(t, reader, pullSpan(h, 0, 7)); resp.Status != wire.StatusSpanMoved {
		t.Fatalf("span below the new baseline: %+v (%s)", resp, resp.Payload)
	}
	if pull := call(t, reader, pullOne(h, 3)); pull.Status != wire.StatusOK {
		t.Fatalf("pull of the new baseline: %s", pull.Payload)
	}
}

// pullServer is a server, not serving, holding lineage "lin" with one
// diff per entry of blocks, diff k mapping to blocks[k] 4 KiB blocks.
func pullServer(t *testing.T, blocks ...int) (*Server, uint32, *lineage) {
	t.Helper()
	srv, err := New(quiet(Config{Root: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h, _, _, err := srv.open("lin")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	for ck, n := range blocks {
		data := make([]byte, n*4096)
		for i := range data {
			data[i] = byte(i/4096 + ck)
		}
		if err := ln.store.Append(&checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(ck),
			DataLen: uint64(len(data)), ChunkSize: 16, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	return srv, h, ln
}

// TestPullBufferSurvivesGC: the frame a span stream reassembles its
// diffs in goes back to the server's free list when the stream ends,
// and a GC does not empty that list — so serving the span again after
// two GCs allocates less than one frame (the read scratch is the
// stream's own), where a buffer pooled in a sync.Pool is gone by then.
func TestPullBufferSurvivesGC(t *testing.T) {
	const blocks = 512
	srv, h, _ := pullServer(t, blocks)
	conn, bw := discardSink(t)
	serve := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if !srv.servePull(context.Background(), nil, conn, nil, bw, pullSpan(h, 0, 1)) {
			t.Fatal("the pull consumed the connection")
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serve()
	runtime.GC()
	runtime.GC()
	if alloc := serve(); alloc >= blocks*4096 {
		t.Fatalf("serving a %d-byte frame again after two GCs allocated %d bytes, want less than the frame", blocks*4096, alloc)
	}
}

// discardConn is a connection whose writes go nowhere, so a span stream
// served to it runs to its end without a reader; the pipe it wraps
// takes the deadlines.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// discardSink returns a discardConn and a writer buffering in front of
// it, as a connection's responses are buffered.
func discardSink(t testing.TB) (net.Conn, *bufio.Writer) {
	conn, peer := net.Pipe()
	t.Cleanup(func() { conn.Close(); peer.Close() })
	sink := discardConn{conn}
	return sink, bufio.NewWriterSize(sink, connBufSize)
}

// TestPullFrameAllocs: with a buffer from the free list, serving diff k
// of a span as servePull serves it — reassemble and verify (load), then
// the staged header and CRC prefix and one vector write (write) —
// allocates at most once, whether the diff maps to 2 blocks or 200: the
// references are walked in place, every block is read through one
// scratch, and the header and vector are the stream's own.
func TestPullFrameAllocs(t *testing.T) {
	srv, h, ln := pullServer(t, 2, 200)
	span, err := ln.store.Span(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	conn, bw := discardSink(t)
	if !srv.servePull(context.Background(), nil, conn, nil, bw, pullSpan(h, 0, 2)) { // leaves its buffer on the list
		t.Fatal("the pull consumed the connection")
	}
	pb := &pullBuf{frame: wire.Frame{Payload: srv.frames.largest()}}
	if cap(pb.frame.Payload) < 200*4096 {
		t.Fatalf("the free list holds no buffer the span's frames fit: largest is %d bytes", cap(pb.frame.Payload))
	}
	for ck, blocks := range []int{2, 200} {
		frame := func() {
			if err := pb.load(span, ck, &srv.frames); err != nil {
				t.Fatal(err)
			}
			if _, err := pb.write(conn, h); err != nil {
				t.Fatal(err)
			}
		}
		frame() // warm the scratch
		if avg := testing.AllocsPerRun(50, frame); avg > 1 {
			t.Fatalf("serving a diff of %d blocks allocates %.0f times, want at most 1", blocks, avg)
		}
	}
}
