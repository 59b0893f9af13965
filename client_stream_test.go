package gpuckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// chainCheckpointer builds a Checkpointer holding n tree-method
// checkpoints over a mutating random buffer.
func chainCheckpointer(t *testing.T, n, bufLen int) *Checkpointer {
	t.Helper()
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	for k := 0; k < n; k++ {
		if k > 0 {
			mutate(rng, buf)
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
	}
	return ck
}

// TestClientStreamPushUsed pins down that bulk pushes actually take the windowed streaming path — the server's
// TPushStream counter must account for every diff — and that the
// streamed bytes land bit-exactly at every checkpoint. The server
// parses each frame where it arrived and stages it for a group commit
// while the next frame is read into the same buffer: a staged diff that
// did not take its bytes along restores garbage here.
func TestClientStreamPushUsed(t *testing.T) {
	srv, addr, shutdown := startTestServerH(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const chain = 16
	ck := chainCheckpointer(t, chain, 32<<10)
	if n, err := cl.PushCheckpointer("streamed", ck); err != nil || n != chain {
		t.Fatalf("stream push: n=%d err=%v", n, err)
	}
	if got := srv.StreamPushes(); got != chain {
		t.Fatalf("server served %d stream frames, want %d", got, chain)
	}
	rec, err := cl.Pull("streamed")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < chain; k++ {
		want, err := ck.Restore(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Restore(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("streamed lineage restore of checkpoint %d mismatch (err %v)", k, err)
		}
	}
	// Incremental sync over the stream path: only the missing suffix.
	if n, err := cl.PushCheckpointer("streamed", ck); err != nil || n != 0 {
		t.Fatalf("re-push: n=%d err=%v", n, err)
	}
}

// ackScript tells the scripted stream server how to answer one
// expected TPushStream frame window.
type ackScript struct {
	// order lists pending frame indices (0-based within the window, in
	// arrival order) in the order their acks go out; the default is
	// arrival order.
	order []int
	// status overrides the ack status per checkpoint id.
	status map[uint32]uint8
	// extra, when non-zero, sends one additional (unsolicited) ack for
	// that checkpoint id after the scripted ones.
	extra uint32
}

// scriptedStreamServer accepts ONE connection, performs the
// handshake, answers TOpen with a fixed handle, reads stream frames
// until the client stops sending, and acknowledges them per script.
// It lets the ack tests control ordering and status without racing a
// real server's pipeline.
func scriptedStreamServer(t *testing.T, window int, script ackScript) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := wire.Handshake(conn); err != nil {
			return
		}
		sendAck := func(ckpt uint32, status uint8) error {
			a := wire.StreamAck{Ckpt: ckpt}
			if status != wire.StatusOK {
				a.Msg = fmt.Sprintf("scripted failure for checkpoint %d", ckpt)
			}
			payload, err := wire.AppendStreamAck(nil, &a)
			if err != nil {
				return err
			}
			return wire.WriteFrame(conn, &wire.Frame{
				Type: wire.TPushStream, Status: status, Ckpt: ckpt, Payload: payload,
			})
		}
		var pending []uint32
		flush := func() bool {
			order := script.order
			if order == nil {
				order = make([]int, len(pending))
				for i := range order {
					order[i] = i
				}
			}
			for _, i := range order {
				if i >= len(pending) {
					continue
				}
				ckpt := pending[i]
				status := uint8(wire.StatusOK)
				if s, ok := script.status[ckpt]; ok {
					status = s
				}
				if sendAck(ckpt, status) != nil {
					return false
				}
			}
			if script.extra != 0 {
				if sendAck(script.extra, wire.StatusOK) != nil {
					return false
				}
				script.extra = 0
			}
			pending = pending[:0]
			return true
		}
		for {
			f, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TOpen:
				resp := &wire.Frame{Type: wire.TOpen, Lineage: 1, Ckpt: 0, Payload: wire.EncodeOpenInfo(0)}
				if wire.WriteFrame(conn, resp) != nil {
					return
				}
			case wire.TPushStream:
				pending = append(pending, f.Ckpt)
				if len(pending) >= window && !flush() {
					return
				}
			default:
				return
			}
		}
	}()
	return ln.Addr().String()
}

func streamTestClient(t *testing.T, addr string, windowFrames int) *Client {
	t.Helper()
	cl, err := DialConfigured(addr, DialConfig{
		Timeout:      5 * time.Second,
		Retry:        RetryPolicy{MaxAttempts: 1},
		MaxConns:     1,
		WindowFrames: windowFrames,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClientStreamAckReorder drives a full window whose acks return in
// reverse arrival order: out-of-order completion is the protocol's
// normal case and must count every push exactly once.
func TestClientStreamAckReorder(t *testing.T) {
	const chain = 4
	addr := scriptedStreamServer(t, chain, ackScript{order: []int{3, 2, 1, 0}})
	cl := streamTestClient(t, addr, chain)
	ck := chainCheckpointer(t, chain, 8<<10)
	n, err := cl.PushCheckpointer("lin", ck)
	if err != nil {
		t.Fatalf("reordered acks failed the push: %v", err)
	}
	if n != chain {
		t.Fatalf("pushed %d, want %d", n, chain)
	}
}

// TestClientStreamUnsolicitedAck verifies the window bookkeeping is
// strict: an ack for a checkpoint that is not in flight is a protocol
// violation, not something to ignore.
func TestClientStreamUnsolicitedAck(t *testing.T) {
	const chain = 3
	addr := scriptedStreamServer(t, chain, ackScript{extra: 99})
	cl := streamTestClient(t, addr, chain)
	// Two extra checkpoints keep the client reading past the scripted
	// window, where the unsolicited ack is waiting.
	ck := chainCheckpointer(t, chain+2, 8<<10)
	_, err := cl.PushCheckpointer("lin", ck)
	if err == nil {
		t.Fatal("unsolicited ack accepted")
	}
	if want := "unsolicited stream ack"; !errorContains(err, want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestClientStreamFrameError verifies a per-frame error ack surfaces
// as a typed StreamFrameError naming the failed checkpoint, with the
// server's RemoteError as its cause, and that frames acked OK before
// the failure still count.
func TestClientStreamFrameError(t *testing.T) {
	const chain = 4
	addr := scriptedStreamServer(t, chain, ackScript{
		status: map[uint32]uint8{2: wire.StatusErr, 3: wire.StatusErr},
	})
	cl := streamTestClient(t, addr, chain)
	ck := chainCheckpointer(t, chain, 8<<10)
	n, err := cl.PushCheckpointer("lin", ck)
	if err == nil {
		t.Fatal("failed frame acked as success")
	}
	var fe *wire.StreamFrameError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a StreamFrameError", err)
	}
	// Checkpoints 2 and 3 both failed; the lowest is the root cause.
	if fe.Ckpt != 2 {
		t.Fatalf("failed frame %d reported, want root cause 2", fe.Ckpt)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("frame error %v does not unwrap to RemoteError", err)
	}
	if n != 2 {
		t.Fatalf("counted %d pushed, want the 2 acked OK", n)
	}
}

// TestClientStreamWindowBounds verifies the frame window holds: with
// WindowFrames=2 against a server that only acks once two frames are
// pending, a longer chain must still complete — the client has to
// drain acks at the window edge rather than deadlock or overrun.
func TestClientStreamWindowBounds(t *testing.T) {
	addr := scriptedStreamServer(t, 2, ackScript{})
	cl := streamTestClient(t, addr, 2)
	ck := chainCheckpointer(t, 6, 8<<10)
	n, err := cl.PushCheckpointer("lin", ck)
	if err != nil {
		t.Fatalf("windowed push: %v", err)
	}
	if n != 6 {
		t.Fatalf("pushed %d, want 6", n)
	}
}

func errorContains(err error, substr string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(substr))
}

// captureConn records what is written to it, and how much of that had
// been written when the first response was read; responses are canned.
type captureConn struct {
	cannedConn
	got         bytes.Buffer
	atFirstRead int
}

func (c *captureConn) Write(p []byte) (int, error) { return c.got.Write(p) }

func (c *captureConn) Read(p []byte) (int, error) {
	if c.atFirstRead == 0 {
		c.atFirstRead = c.got.Len()
	}
	return c.cannedConn.Read(p)
}

// TestClientStreamFrameBytes cross-checks the zero-copy frame stager
// against the canonical encoder: all three frames coalesce into ONE
// flush, and the scattered segments (staged prefixes, bitmap refs,
// data refs) must concatenate to exactly the back-to-back sequence of
// [frame header | CRC32C(Encode bytes) | Encode bytes] frames.
func TestClientStreamFrameBytes(t *testing.T) {
	ck := chainCheckpointer(t, 3, 16<<10)
	var acks bytes.Buffer
	for k := uint32(0); k < 3; k++ {
		payload, err := wire.AppendStreamAck(nil, &wire.StreamAck{Ckpt: k, NewLen: k + 1})
		if err != nil {
			t.Fatal(err)
		}
		acks.Write(cannedFrame(t, &wire.Frame{Type: wire.TPushStream, Lineage: 7, Ckpt: k, Payload: payload}))
	}
	conn := &captureConn{cannedConn: cannedConn{r: bytes.NewReader(acks.Bytes())}}
	cn := &wireclient.Conn{NC: conn}
	n, err := cn.StreamPush(7, 0, 3, ck.diffAt, wireclient.Window{Frames: DefaultWindowFrames, Bytes: DefaultWindowBytes})
	if err != nil || n != 3 {
		t.Fatalf("stream of three frames: %d acknowledged, %v", n, err)
	}
	got := &conn.got
	if conn.atFirstRead != got.Len() {
		t.Fatalf("%d of %d bytes were written before the first ack was awaited; want one flush", conn.atFirstRead, got.Len())
	}
	r := bytes.NewReader(got.Bytes())
	for k := 0; k < 3; k++ {
		d, err := ck.diffAt(k)
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := d.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("ckpt %d: staged frame unreadable: %v", k, err)
		}
		if f.Type != wire.TPushStream || f.Lineage != 7 || f.Ckpt != uint32(k) {
			t.Fatalf("ckpt %d: staged header %+v", k, f)
		}
		wantSum := wire.Checksum(enc.Bytes())
		gotSum := binary.BigEndian.Uint32(f.Payload)
		if gotSum != wantSum {
			t.Fatalf("ckpt %d: staged checksum %08x, Encode checksum %08x", k, gotSum, wantSum)
		}
		if !bytes.Equal(f.Payload[wire.PushChecksumSize:], enc.Bytes()) {
			t.Fatalf("ckpt %d: staged payload differs from Encode output", k)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes flushed past the three frames", r.Len())
	}
}

// TestRecordDiffAtRebase verifies diffAt hands out the absolute
// checkpoint ids of a record pulled from a compacted lineage, and only
// those in [Base, Len).
func TestRecordDiffAtRebase(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const chain = 5
	ck := chainCheckpointer(t, chain, 16<<10)
	if _, err := cl.PushCheckpointer("lin", ck); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompactTo("lin", 2); err != nil {
		t.Fatal(err)
	}
	rec, err := cl.Pull("lin")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base() != 2 {
		t.Fatalf("pulled base %d, want 2", rec.Base())
	}
	for k := 2; k < chain; k++ {
		d, err := rec.diffAt(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.CkptID; got != uint32(k) {
			t.Fatalf("diffAt(%d) carries ckpt id %d", k, got)
		}
		var viaAt, viaWrite bytes.Buffer
		if err := d.Encode(&viaAt); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteDiff(k, &viaWrite); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaAt.Bytes(), viaWrite.Bytes()) {
			t.Fatalf("diffAt(%d) and WriteDiff(%d) disagree", k, k)
		}
	}
	if _, err := rec.diffAt(1); err == nil {
		t.Fatal("diffAt below base accepted")
	}
	if _, err := rec.diffAt(chain); err == nil {
		t.Fatal("diffAt past end accepted")
	}
}
