package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// warmFrames puts n buffers of size bytes on srv's free list and
// returns the bytes the list then holds: what a run of n frames of that
// size leaves there, however its frames were grouped into commits.
func warmFrames(srv *Server, n, size int) int {
	for i := 0; i < n; i++ {
		srv.frames.put(make([]byte, size))
	}
	srv.frames.mu.Lock()
	defer srv.frames.mu.Unlock()
	return srv.frames.held
}

// waitFree waits until srv's free list holds want bytes again: every
// buffer a run staged in or a subscription borrowed is back. It then
// walks the list (freeBytes), so no buffer is on it twice.
func waitFree(t testing.TB, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.frames.mu.Lock()
		held := srv.frames.held
		srv.frames.mu.Unlock()
		if held == want {
			if listed := freeBytes(t, srv); listed != want {
				t.Fatalf("the free list's classes hold %d bytes, its count %d", listed, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the free list holds %d bytes, want %d", held, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// freeBytes walks srv's free list class by class and returns the bytes
// of capacity on it. A backing array listed twice — one buffer with two
// users to come — fails t.
func freeBytes(t testing.TB, srv *Server) int {
	t.Helper()
	srv.frames.mu.Lock()
	defer srv.frames.mu.Unlock()
	seen, n := make(map[*byte]bool), 0
	for _, class := range srv.frames.free {
		for _, b := range class {
			if first := &b[:1][0]; seen[first] {
				t.Fatalf("a %d-byte buffer is on the free list twice", cap(b))
			} else {
				seen[first] = true
			}
			n += cap(b)
		}
	}
	return n
}

// TestWarmStreamRunAllocatesNothingPerFrame: on a warm connection a
// 16-frame stream run allocates nothing per frame, with or without a
// live subscriber. Each frame's blocks go from the connection's read
// buffer to the block store, its region lists into memory the
// connection reuses, its ack into a buffer of the run's; a subscriber
// reads each diff back into the buffer it borrows from the free list
// once a wake. The third run of 256 KiB frames (the data of the first,
// all block-store hits) therefore makes fewer allocations than it has
// frames, however TCP groups the frames into settles.
func TestWarmStreamRunAllocatesNothingPerFrame(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		t.Run(map[bool]string{false: "alone", true: "replicated"}[replicated], func(t *testing.T) {
			srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
			defer stop()
			sub := testConn(t, addr)
			defer sub.Close()
			if replicated {
				subscribeOn(t, srv, sub, "warm", wire.Pull{})
			}
			pusher := testConn(t, addr)
			defer pusher.Close()
			h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("warm")}).Lineage

			const runs, n, size = 3, 16, 256 << 10
			bursts := make([][]byte, runs)
			for r := range bursts {
				bursts[r] = streamBurst(t, h, r*n, runPayloads(t, r*n, n, size))
			}
			var ack, tail wire.Frame
			var ackScratch, tailScratch []byte
			relay := func(r int) {
				if _, err := pusher.Write(bursts[r]); err != nil {
					t.Fatal(err)
				}
				for ck := r * n; ck < (r+1)*n; ck++ {
					if err := wire.ReadFrameInto(pusher, 0, &ack, &ackScratch); err != nil || ack.Status != wire.StatusOK || ack.Ckpt != uint32(ck) {
						t.Fatalf("ack %d: %+v, %v", ck, ack, err)
					}
				}
				for ck := r * n; replicated && ck < (r+1)*n; ck++ {
					if err := wire.ReadFrameInto(sub, 0, &tail, &tailScratch); err != nil || tail.Type != wire.TPull || tail.Ckpt != uint32(ck) {
						t.Fatalf("tail %d (type %#x ckpt %d): %v", ck, tail.Type, tail.Ckpt, err)
					}
				}
			}
			for r := 0; r < runs-1; r++ {
				relay(r)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			relay(runs - 1)
			runtime.ReadMemStats(&after)
			mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			t.Logf("a warm %d-frame run of %d KiB frames: %d allocations, %d B", n, size>>10, mallocs, bytes)
			if mallocs >= n {
				t.Fatalf("a warm %d-frame run made %d allocations (%d B), want fewer than one a frame", n, mallocs, bytes)
			}
		})
	}
}

// readTails reads the frames a subscription sends from checkpoint from
// on: frames, each of which must carry the pushed payload of the
// next checkpoint, until the server closes the stream.
func readTails(t *testing.T, sub net.Conn, want [][]byte, from int) {
	t.Helper()
	for ck := from; ; ck++ {
		sub.SetReadDeadline(time.Now().Add(5 * time.Second))
		fr, err := wire.ReadFrame(sub, 0)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatalf("after %d tail frames: %v", ck-from, err)
		}
		if fr.Type != wire.TPull || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
			t.Fatalf("frame type %#x ckpt %d is not the pushed payload of checkpoint %d", fr.Type, fr.Ckpt, ck)
		}
	}
}

// TestRaceFanOutReleases: however a subscription goes — delivered,
// left behind by a reader that stops reading, or ended by a fold, a
// disconnect or a shutdown — every payload that reaches the wire
// is the pushed bytes, and the free list ends where it started: the
// buffer the subscription borrowed is back, and the pusher, which reads
// into no buffer of the list, adds none when its connection closes. The subscribers are on unbuffered pipes, so
// while the test does not read, the server is parked in a write with
// the buffer borrowed.
func TestRaceFanOutReleases(t *testing.T) {
	const n, size = 6, 16 << 10
	want := make([][]byte, n)
	for ck := range want {
		want[ck] = wire.EncodePush(bigEncodedDiff(t, ck, size))
	}
	// start serves cfg and returns a pusher connection, its handle of
	// lineage "fan", a subscriber connection, not yet subscribed, and
	// the bytes the warmed free list holds.
	start := func(t *testing.T, cfg Config) (l *pipeListener, pusher net.Conn, h uint32, sub net.Conn, warm int) {
		cfg.Root = t.TempDir()
		l = startPipeServer(t, cfg)
		pusher, sub = l.dial(t), l.dial(t)
		t.Cleanup(func() { pusher.Close(); sub.Close() })
		h = call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("fan")}).Lineage
		return l, pusher, h, sub, warmFrames(l.srv, n, len(want[0]))
	}
	pushAll := func(t *testing.T, pusher net.Conn, h uint32) {
		sendRun(t, pusher, streamBurst(t, h, 0, want), 0, n)
	}
	// hangUp closes both connections; the list stays as it was.
	hangUp := func(t *testing.T, l *pipeListener, pusher, sub net.Conn, warm int) {
		pusher.Close()
		sub.Close()
		waitFree(t, l.srv, warm)
	}
	readAll := func(t *testing.T, sub net.Conn) {
		for ck := 0; ck < n; ck++ {
			if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
				t.Fatalf("tail frame %d is not the pushed payload", ck)
			}
		}
	}

	t.Run("delivery", func(t *testing.T) {
		// Each diff is read as soon as it is acked.
		l, pusher, h, sub, warm := start(t, Config{})
		subscribeOn(t, l.srv, sub, "fan", wire.Pull{})
		for ck := 0; ck < n; ck++ {
			sendRun(t, pusher, streamBurst(t, h, ck, want[ck:ck+1]), ck, 1)
			if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
				t.Fatalf("tail frame %d is not the pushed payload", ck)
			}
		}
		waitFree(t, l.srv, warm)
		hangUp(t, l, pusher, sub, warm)
	})

	t.Run("lag", func(t *testing.T) {
		// The subscriber reads nothing until every push has been acked,
		// and is still not dropped: it is sent the whole run once it
		// reads.
		l, pusher, h, sub, warm := start(t, Config{})
		subscribeOn(t, l.srv, sub, "fan", wire.Pull{})
		pushAll(t, pusher, h)
		readAll(t, sub)
		waitFree(t, l.srv, warm)
		hangUp(t, l, pusher, sub, warm)
	})

	t.Run("fold", func(t *testing.T) {
		l, pusher, h, sub, warm := start(t, Config{})
		subscribeOn(t, l.srv, sub, "fan", wire.Pull{})
		pushAll(t, pusher, h)
		if resp := call(t, pusher, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 3}); resp.Status != wire.StatusOK {
			t.Fatalf("compact: %s", resp.Payload)
		}
		readTails(t, sub, want, 0)
		if ends := l.srv.FoldEnds(); ends != 1 {
			t.Fatalf("FoldEnds = %d, want 1", ends)
		}
		waitFree(t, l.srv, warm)
		hangUp(t, l, pusher, sub, warm)
	})

	t.Run("disconnect", func(t *testing.T) {
		l, pusher, h, sub, warm := start(t, Config{})
		subscribeOn(t, l.srv, sub, "fan", wire.Pull{})
		pushAll(t, pusher, h)
		if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != 0 || !bytes.Equal(fr.Payload, want[0]) {
			t.Fatal("the first tail frame is not the pushed payload")
		}
		sub.Close()
		waitFree(t, l.srv, warm)
		hangUp(t, l, pusher, sub, warm)
	})

	t.Run("shutdown", func(t *testing.T) {
		l, pusher, h, sub, warm := start(t, Config{DrainTimeout: 50 * time.Millisecond})
		subscribeOn(t, l.srv, sub, "fan", wire.Pull{})
		pushAll(t, pusher, h)
		if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != 0 || !bytes.Equal(fr.Payload, want[0]) {
			t.Fatal("the first tail frame is not the pushed payload")
		}
		// The subscription is parked writing checkpoint 1; the drain
		// times out and closes its connection.
		l.shutdown()
		waitFree(t, l.srv, warm)
	})
}

// TestSubscriberNeverShed: a subscriber that reads nothing while 200
// diffs are pushed holds up no push and is not dropped; once it reads,
// it is sent every diff, in order. Its connection is an unbuffered
// pipe, so the server is parked in its first write the whole time.
func TestSubscriberNeverShed(t *testing.T) {
	const n = 200
	l := startPipeServer(t, Config{Root: t.TempDir()})
	pusher, sub := l.dial(t), l.dial(t)
	defer pusher.Close()
	defer sub.Close()
	subscribeOn(t, l.srv, sub, "slow", wire.Pull{})
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("slow")}).Lineage
	want := make([][]byte, n)
	for ck := range want {
		want[ck] = wire.EncodePush(encodedDiff(t, ck, byte(ck)))
		if resp := call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(ck), Payload: want[ck]}); resp.Status != wire.StatusOK {
			t.Fatalf("push %d: %s", ck, resp.Payload)
		}
	}
	for ck := 0; ck < n; ck++ {
		if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
			t.Fatalf("frame %d: type %#x ckpt %d, want the pushed diff", ck, fr.Type, fr.Ckpt)
		}
	}
}

// BenchmarkReplicatedPush measures the replicated intake on its own:
// each op pushes one 1 MiB stream frame to a lineage whose one live
// subscriber drains its tail over TCP, and waits for the frame's ack.
// Two frames pushed and drained before the timer starts grow the
// pusher's read buffer and put a second full-size buffer on the free
// list, for the run to hand back and forth with the pusher, so B/op is
// what the intake and the subscription allocate per replicated frame
// on a warm server, even at -benchtime 1x.
func BenchmarkReplicatedPush(b *testing.B) {
	srv, addr, stop := startServer(b, Config{Root: b.TempDir()})
	defer stop()
	sub, pusher := testConn(b, addr), testConn(b, addr)
	defer sub.Close()
	defer pusher.Close()
	subscribeOn(b, srv, sub, "bench", wire.Pull{})
	h := call(b, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("bench")}).Lineage
	sub.SetDeadline(time.Time{})
	pusher.SetDeadline(time.Time{})

	const size = 1 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	d := &checkpoint.Diff{Method: checkpoint.MethodFull, DataLen: size, ChunkSize: 128, Data: data}
	payload := make([]byte, 0, wire.PushChecksumSize+d.TotalBytes())
	req := wire.Frame{Type: wire.TPushStream, Lineage: h}
	var ack, tail wire.Frame
	var ackScratch, tailScratch []byte
	push := func(ck int) {
		d.CkptID = uint32(ck)
		payload = append(payload[:0], 0, 0, 0, 0)
		payload, _ = d.AppendHeader(payload)
		payload = append(payload, d.Data...)
		binary.BigEndian.PutUint32(payload, wire.Checksum(payload[wire.PushChecksumSize:]))
		req.Ckpt, req.Payload = uint32(ck), payload
		if err := wire.WriteFrame(pusher, &req); err != nil {
			b.Fatal(err)
		}
		if err := wire.ReadFrameInto(pusher, 0, &ack, &ackScratch); err != nil || ack.Status != wire.StatusOK {
			b.Fatalf("ack %d: %+v, %v", ck, ack, err)
		}
	}
	for ck := 0; ck < 2; ck++ {
		push(ck)
		if err := wire.ReadFrameInto(sub, 0, &tail, &tailScratch); err != nil {
			b.Fatal(err)
		}
	}
	for { // until the subscription has handed back the second frame's staging
		buf := srv.frames.largest()
		srv.frames.put(buf)
		if cap(buf) >= len(payload) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if err := wire.ReadFrameInto(sub, 0, &tail, &tailScratch); err != nil {
				drained <- err
				return
			}
		}
		drained <- nil
	}()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 2; i < b.N+2; i++ {
		push(i)
	}
	if err := <-drained; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}
