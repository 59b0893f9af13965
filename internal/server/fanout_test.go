package server

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// waitReleased waits until every reference to a shared frame of srv has
// been given back.
func waitReleased(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.frames.shared.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d references to shared frames were never released", srv.frames.shared.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicatedIntakeRecyclesStaging: with a live subscriber, a staged
// run is published by reference — the subscriber is sent the staging
// itself — and the staging goes back to the free list once the run and
// the subscriber are both done with it. The second of two 16-frame runs
// over TCP therefore allocates next to nothing for its payload bytes,
// where a copy per replicated frame would allocate all of them again.
// During the first run an in-process subscriber holds every frame until
// the run is over, so the list ends it holding one buffer per frame
// however quickly the live subscriber drains.
func TestReplicatedIntakeRecyclesStaging(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	sub := testConn(t, addr)
	defer sub.Close()
	if _, resp := subscribeOn(t, sub, "replicated", wire.Cursor{}); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: %+v", resp)
	}
	pusher := testConn(t, addr)
	defer pusher.Close()
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("replicated")}).Lineage
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}

	const n, size = 16, 256 << 10
	want := append(runPayloads(t, 0, n, size), runPayloads(t, n, n, size)...)
	payloadBytes := 0
	for _, p := range want[n:] {
		payloadBytes += len(p)
	}
	first, second := streamBurst(t, h, 0, want[:n]), streamBurst(t, h, n, want[n:])
	var tail wire.Frame
	var scratch []byte
	relay := func(burst []byte, from int) {
		sendRun(t, pusher, burst, from, n)
		for ck := from; ck < from+n; ck++ {
			if err := wire.ReadFrameInto(sub, 0, &tail, &scratch); err != nil {
				t.Fatalf("tail %d: %v", ck, err)
			}
			if tail.Type != wire.TTail || tail.Ckpt != uint32(ck) || !bytes.Equal(tail.Payload, want[ck]) {
				t.Fatalf("tail frame %d (type %#x ckpt %d) is not the pushed payload", ck, tail.Type, tail.Ckpt)
			}
		}
	}

	holder := srv.hub.register(ln, n)
	relay(first, 0)
	srv.hub.unregister(ln, holder)
	waitReleased(t, srv)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	relay(second, n)
	waitReleased(t, srv)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= uint64(payloadBytes)/20 {
		t.Fatalf("the second replicated run allocated %d bytes for %d payload bytes, want under 5%%", alloc, payloadBytes)
	}
	t.Logf("the second replicated run allocated %d bytes for %d payload bytes", alloc, payloadBytes)
}

// readTails reads the frames a subscription sends from checkpoint from
// on: TTail frames, each of which must carry the pushed payload of the
// next checkpoint, up to the TResync that ends the stream, which it
// returns with the number of TTail frames read.
func readTails(t *testing.T, sub net.Conn, want [][]byte, from int) (int, wire.Resync) {
	t.Helper()
	for ck := from; ; ck++ {
		fr := readTail(t, sub)
		if fr.Type == wire.TResync {
			info, err := wire.DecodeResync(fr.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return ck - from, info
		}
		if fr.Type != wire.TTail || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
			t.Fatalf("frame type %#x ckpt %d is not the pushed payload of checkpoint %d", fr.Type, fr.Ckpt, ck)
		}
	}
}

// TestRaceFanOutReleases: however a subscription's events end — written,
// skipped, shed, or left queued by a fold, a disconnect or a shutdown —
// every TTail payload that reaches the wire is the pushed bytes, and
// every reference to shared staging is released exactly once: the count
// of held references returns to 0, and a release too many would panic.
// The subscribers are on unbuffered pipes, so while the test does not
// read, the server is parked in a write with the other events queued.
func TestRaceFanOutReleases(t *testing.T) {
	const n, size = 6, 16 << 10
	want := make([][]byte, n)
	for ck := range want {
		want[ck] = wire.EncodePush(bigEncodedDiff(t, ck, size))
	}
	// start serves cfg and returns a pusher connection, its handle of
	// lineage "fan" and a subscriber connection, not yet subscribed.
	start := func(t *testing.T, cfg Config) (l *pipeListener, pusher net.Conn, h uint32, sub net.Conn) {
		cfg.Root = t.TempDir()
		l = startPipeServer(t, cfg)
		pusher, sub = l.dial(t), l.dial(t)
		t.Cleanup(func() { pusher.Close(); sub.Close() })
		h = call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("fan")}).Lineage
		return l, pusher, h, sub
	}
	subscribe := func(t *testing.T, sub net.Conn) {
		if _, resp := subscribeOn(t, sub, "fan", wire.Cursor{}); resp.Type != wire.TSubscribe || resp.Status != wire.StatusOK {
			t.Fatalf("subscribe: %+v", resp)
		}
	}
	pushAll := func(t *testing.T, pusher net.Conn, h uint32, upto int) {
		sendRun(t, pusher, streamBurst(t, h, 0, want[:upto]), 0, upto)
	}

	t.Run("delivery", func(t *testing.T) {
		l, pusher, h, sub := start(t, Config{})
		subscribe(t, sub)
		pushAll(t, pusher, h, n)
		for ck := 0; ck < n; ck++ {
			if fr := readTail(t, sub); fr.Type != wire.TTail || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
				t.Fatalf("tail frame %d is not the pushed payload", ck)
			}
		}
		waitReleased(t, l.srv)
	})

	t.Run("lag", func(t *testing.T) {
		l, pusher, h, sub := start(t, Config{SubscriberQueue: 1})
		subscribe(t, sub)
		pushAll(t, pusher, h, n)
		if _, info := readTails(t, sub, want, 0); info.Reason != wire.ResyncLag {
			t.Fatalf("barrier %+v, want a lag shed", info)
		}
		if sheds := l.srv.SubscriberSheds(); sheds != 1 {
			t.Fatalf("%d subscribers shed, want 1", sheds)
		}
		waitReleased(t, l.srv)
	})

	t.Run("fold", func(t *testing.T) {
		l, pusher, h, sub := start(t, Config{})
		subscribe(t, sub)
		pushAll(t, pusher, h, n)
		if resp := call(t, pusher, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 3}); resp.Status != wire.StatusOK {
			t.Fatalf("compact: %s", resp.Payload)
		}
		if _, info := readTails(t, sub, want, 0); info != (wire.Resync{Reason: wire.ResyncFold, Base: 3, Len: n}) {
			t.Fatalf("barrier %+v, want fold [3,%d)", info, n)
		}
		waitReleased(t, l.srv)
	})

	t.Run("disconnect", func(t *testing.T) {
		l, pusher, h, sub := start(t, Config{})
		subscribe(t, sub)
		pushAll(t, pusher, h, n)
		if fr := readTail(t, sub); fr.Type != wire.TTail || fr.Ckpt != 0 || !bytes.Equal(fr.Payload, want[0]) {
			t.Fatal("the first tail frame is not the pushed payload")
		}
		sub.Close()
		waitReleased(t, l.srv)
	})

	t.Run("gap", func(t *testing.T) {
		// Two stored diffs make the backlog; then a checkpoint the backlog
		// already served and one past a gap are queued behind it. The first
		// is skipped, the second ends the stream with a lag barrier.
		l, pusher, h, sub := start(t, Config{})
		pushAll(t, pusher, h, 2)
		subscribe(t, sub)
		ln, err := l.srv.get(h)
		if err != nil {
			t.Fatal(err)
		}
		l.srv.hub.mu.Lock()
		subs := append([]*tailSub(nil), l.srv.hub.subs[ln]...)
		l.srv.hub.mu.Unlock()
		if len(subs) != 1 {
			t.Fatalf("%d subscribers registered, want 1", len(subs))
		}
		for _, ck := range []int{0, 5} {
			subs[0].ch <- tailEvent{ckpt: uint32(ck), frame: l.srv.frames.share(want[ck])}
		}
		if got, info := readTails(t, sub, want, 0); got != 2 || info.Reason != wire.ResyncLag {
			t.Fatalf("%d tail frames then %+v, want the 2 of the backlog then a lag barrier", got, info)
		}
		waitReleased(t, l.srv)
	})

	t.Run("shutdown", func(t *testing.T) {
		l, pusher, h, sub := start(t, Config{DrainTimeout: 50 * time.Millisecond})
		subscribe(t, sub)
		pushAll(t, pusher, h, n)
		if fr := readTail(t, sub); fr.Type != wire.TTail || fr.Ckpt != 0 || !bytes.Equal(fr.Payload, want[0]) {
			t.Fatal("the first tail frame is not the pushed payload")
		}
		// The subscription is parked writing checkpoint 1 with the rest
		// queued; the drain times out and closes its connection.
		l.shutdown()
		waitReleased(t, l.srv)
	})
}

// BenchmarkReplicatedPush measures the replicated intake on its own:
// each op pushes one 1 MiB stream frame to a lineage whose one live
// subscriber drains its tail over TCP, and waits for the frame's ack.
// One frame pushed and drained before the timer starts fills the free
// list and both read buffers, so B/op is what the intake and the
// fan-out allocate per replicated frame on a warm server, even at
// -benchtime 1x.
func BenchmarkReplicatedPush(b *testing.B) {
	srv, addr, stop := startServer(b, Config{Root: b.TempDir()})
	defer stop()
	sub, pusher := testConn(b, addr), testConn(b, addr)
	defer sub.Close()
	defer pusher.Close()
	if _, resp := subscribeOn(b, sub, "bench", wire.Cursor{}); resp.Status != wire.StatusOK {
		b.Fatalf("subscribe: %+v", resp)
	}
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
		payload, _ = d.AppendPrefix(payload)
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
	push(0)
	if err := wire.ReadFrameInto(sub, 0, &tail, &tailScratch); err != nil {
		b.Fatal(err)
	}
	waitReleased(b, srv)

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
	for i := 1; i <= b.N; i++ {
		push(i)
	}
	if err := <-drained; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	waitReleased(b, srv)
}
