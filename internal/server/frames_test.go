package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// TestFrameMem: get hands out the smallest free buffer that fits and
// largest the largest; put keeps what it is given up to frameMemCap.
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
	m.put(nil)
	if m.held != cap(small) {
		t.Fatalf("put of nothing changed held to %d", m.held)
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

// TestRaceStagingRecycle: a run's staging goes back to the free list
// when the run settles, before the lineage's subscribers are woken, and
// the next run reuses it at once. The first runs are staged in process
// with a subscriber registered between check and settle: once settle
// returns, the subscriber holds a wake and the list holds every buffer
// of the run. The rest stream over one connection while subscriptions
// come and go beside them, each checking what it is sent against the
// pushed bytes while later runs reuse the staging; every stored diff
// must still be the pushed bytes too.
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
	for r := 0; r < runs; r++ {
		var run stagedRun
		for ck := r * n; ck < (r+1)*n; ck++ {
			if err := srv.serveStream(&run, &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: want[ck]}, bw, sink); err != nil {
				t.Fatal(err)
			}
		}
		if len(run.batch) != n || run.batch[0].staging == nil {
			t.Fatalf("run %d: %d frames staged, want %d in free-list staging", r, len(run.batch), n)
		}
		sub := srv.hub.register(ln)
		before := held()
		if err := srv.settle(&run, bw, sink); err != nil {
			t.Fatal(err)
		}
		if got := held() - before; got != n*len(want[0]) || len(run.batch) != 0 {
			t.Fatalf("run %d: settling gave the list %d bytes and left %d frames staged, want %d and none", r, got, len(run.batch), n*len(want[0]))
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
		cur := wire.Cursor{Next: open.Ckpt}
		if cur.Next > 0 {
			cur.CRC = wire.Checksum(want[cur.Next-1][wire.PushChecksumSize:])
		}
		resp, err := roundTrip(sc, &wire.Frame{Type: wire.TSubscribe, Lineage: open.Lineage, Payload: wire.EncodeSubscribe(cur)})
		if err != nil || resp.Type != wire.TSubscribe || resp.Status != wire.StatusOK {
			return fmt.Errorf("subscribe at %d: %+v, %v", cur.Next, resp, err)
		}
		for i := 0; i < 3; i++ {
			sc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			fr, err := wire.ReadFrame(sc, 0)
			if err != nil {
				return nil // nothing more arrived in time
			}
			if fr.Type != wire.TTail || int(fr.Ckpt) >= len(want) || !bytes.Equal(fr.Payload, want[fr.Ckpt]) {
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
