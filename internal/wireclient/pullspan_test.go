package wireclient_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// scriptedPeer speaks the hello and TOpen, and answers the i-th TPull
// it receives — over all connections — by writing script[i]'s frames
// (the last script entry repeats).
type scriptedPeer struct {
	addr string

	mu    sync.Mutex
	conns int
	pulls []wire.Frame // the TPull requests received, payloads copied
}

func startScriptedPeer(t *testing.T, script ...[]wire.Frame) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &scriptedPeer{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns++
			p.mu.Unlock()
			go func() {
				defer conn.Close()
				if wire.ReadHello(conn) != nil || wire.WriteHello(conn) != nil {
					return
				}
				for {
					req, err := wire.ReadFrame(conn, 0)
					if err != nil {
						return
					}
					if req.Type == wire.TOpen {
						if wire.WriteFrame(conn, &wire.Frame{Type: wire.TOpen, Lineage: 1, Ckpt: 9, Payload: wire.EncodeOpenInfo(0)}) != nil {
							return
						}
						continue
					}
					p.mu.Lock()
					i := min(len(p.pulls), len(script)-1)
					p.pulls = append(p.pulls, *req)
					p.mu.Unlock()
					for j := range script[i] {
						if wire.WriteFrame(conn, &script[i][j]) != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return p
}

func (p *scriptedPeer) seen() (conns int, pulls []wire.Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns, append([]wire.Frame(nil), p.pulls...)
}

// okFrame is the TPull/StatusOK frame of checkpoint ck carrying the diff
// payload.
func okFrame(ck uint32, payload string) wire.Frame {
	return wire.Frame{Type: wire.TPull, Lineage: 1, Ckpt: ck, Payload: wire.EncodePush([]byte(payload))}
}

func newClient(t *testing.T, addr string) *wireclient.Client {
	t.Helper()
	cl, err := wireclient.New(addr, wireclient.Options{
		Timeout: 5 * time.Second,
		Retry:   wireclient.RetryPolicy{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// collect returns a PullSpan consumer recording what it is handed.
func collect(got *[]string) func(int, []byte) error {
	return func(ck int, b []byte) error {
		*got = append(*got, fmt.Sprintf("%d:%s", ck, b))
		return nil
	}
}

// TestPullSpanOneRequest: a span is one TPull naming [from, to) and one
// frame per checkpoint, handed over in id order.
func TestPullSpanOneRequest(t *testing.T) {
	peer := startScriptedPeer(t, []wire.Frame{okFrame(3, "c"), okFrame(4, "d"), okFrame(5, "e")})
	cl := newClient(t, peer.addr)
	var got []string
	if err := cl.PullSpan("lin", 3, 6, collect(&got)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[3:c 4:d 5:e]" {
		t.Fatalf("consumer saw %v", got)
	}
	_, pulls := peer.seen()
	if len(pulls) != 1 || pulls[0].Ckpt != 3 {
		t.Fatalf("requests sent: %+v", pulls)
	}
	if p, err := wire.DecodePull(pulls[0].Ckpt, pulls[0].Payload); err != nil || p.To != 6 {
		t.Fatalf("request names end %d (%v), want 6", p.To, err)
	}
	for _, bad := range [][2]int{{4, 4}, {5, 4}, {-1, 2}} {
		if err := cl.PullSpan("lin", bad[0], bad[1], collect(&got)); err == nil {
			t.Fatalf("span [%d,%d) was sent", bad[0], bad[1])
		}
	}
}

// TestPullSpanErrorFrameEndsStream: a typed error frame ends the stream
// early. The diffs before it were delivered, the error is the server's
// (terminal, not replayed), and the connection — back in request mode —
// is kept and serves the next span.
func TestPullSpanErrorFrameEndsStream(t *testing.T) {
	peer := startScriptedPeer(t,
		[]wire.Frame{okFrame(0, "a"), {Type: wire.TPull, Status: wire.StatusErr, Lineage: 1, Ckpt: 1, Payload: []byte("diff 1 is corrupt")}},
		[]wire.Frame{okFrame(2, "c")})
	cl := newClient(t, peer.addr)
	var got []string
	err := cl.PullSpan("lin", 0, 3, collect(&got))
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Msg != "diff 1 is corrupt" || fmt.Sprint(got) != "[0:a]" {
		t.Fatalf("err %v after %v", err, got)
	}
	if err := cl.PullSpan("lin", 2, 3, collect(&got)); err != nil || fmt.Sprint(got) != "[0:a 2:c]" {
		t.Fatalf("span after the error frame: %v after %v", err, got)
	}
	if conns, pulls := peer.seen(); conns != 1 || len(pulls) != 2 {
		t.Fatalf("%d connections, %d requests; want the one connection reused and no replay", conns, len(pulls))
	}
}

// TestPullSpanMovedIsReplayed: StatusSpanMoved asserts the span was not
// served to completion from one generation, so the one retry loop
// replays the attempt — on the same connection, which the error frame
// left in request mode — and the consumer sees the span from its start
// again.
func TestPullSpanMovedIsReplayed(t *testing.T) {
	peer := startScriptedPeer(t,
		[]wire.Frame{okFrame(0, "old"), {Type: wire.TPull, Status: wire.StatusSpanMoved, Lineage: 1, Ckpt: 1, Payload: []byte("folded")}},
		[]wire.Frame{okFrame(0, "new"), okFrame(1, "new")})
	cl := newClient(t, peer.addr)
	var got []string
	if err := cl.PullSpan("lin", 0, 2, collect(&got)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0:old 0:new 1:new]" {
		t.Fatalf("consumer saw %v", got)
	}
	if conns, pulls := peer.seen(); conns != 1 || len(pulls) != 2 {
		t.Fatalf("%d connections, %d requests; want one connection, two attempts", conns, len(pulls))
	}
}

// TestPullSpanOutOfStepFrame: a frame carrying any checkpoint id but
// the next one is a protocol violation — terminal, connection
// discarded — and its payload never reaches the consumer.
func TestPullSpanOutOfStepFrame(t *testing.T) {
	peer := startScriptedPeer(t, []wire.Frame{okFrame(0, "a"), okFrame(2, "c")})
	cl := newClient(t, peer.addr)
	var got []string
	err := cl.PullSpan("lin", 0, 2, collect(&got))
	if !errors.Is(err, wire.ErrUnexpectedResponse) || fmt.Sprint(got) != "[0:a]" {
		t.Fatalf("err %v after %v", err, got)
	}
	if conns, pulls := peer.seen(); conns != 1 || len(pulls) != 1 {
		t.Fatalf("%d connections, %d requests; a protocol violation is not replayed", conns, len(pulls))
	}
}

// TestPullSpanConsumerError: the consumer's own failure abandons the
// stream with frames still in flight, so the connection is discarded;
// but it is not the transport's failure, so nothing is replayed, and
// the error comes back matchable.
func TestPullSpanConsumerError(t *testing.T) {
	peer := startScriptedPeer(t, []wire.Frame{okFrame(0, "a"), okFrame(1, "b")})
	cl := newClient(t, peer.addr)
	errFull := errors.New("disk full")
	err := cl.PullSpan("lin", 0, 2, func(int, []byte) error { return errFull })
	var ce *wireclient.ConsumerError
	if !errors.Is(err, errFull) || !errors.As(err, &ce) {
		t.Fatalf("err = %v, want the consumer's error inside a ConsumerError", err)
	}
	var got []string
	if err := cl.PullSpan("lin", 0, 2, collect(&got)); err != nil || fmt.Sprint(got) != "[0:a 1:b]" {
		t.Fatalf("span after the abandoned one: %v after %v (a stale frame leaked into it?)", err, got)
	}
	if conns, pulls := peer.seen(); conns != 2 || len(pulls) != 2 {
		t.Fatalf("%d connections, %d requests; want the tainted connection replaced and no replay", conns, len(pulls))
	}
}

// TestPullSpanChecksum: a pulled frame whose diff does not match its
// CRC32C prefix — one byte flipped on the wire — fails the pull typed
// with wire.ErrChecksum, terminal, and the consumer is handed nothing
// of it, whether the pull is bounded or a follow pull.
func TestPullSpanChecksum(t *testing.T) {
	flipped := okFrame(1, "b")
	flipped.Payload[len(flipped.Payload)-1] ^= 0x01
	peer := startScriptedPeer(t, []wire.Frame{okFrame(0, "a"), flipped, okFrame(2, "c")})
	cl := newClient(t, peer.addr)
	var got []string
	if err := cl.PullSpan("lin", 0, 3, collect(&got)); !errors.Is(err, wire.ErrChecksum) || fmt.Sprint(got) != "[0:a]" {
		t.Fatalf("bounded pull: err %v after %v, want wire.ErrChecksum after [0:a]", err, got)
	}
	if conns, pulls := peer.seen(); conns != 1 || len(pulls) != 1 {
		t.Fatalf("%d connections, %d requests; a checksum mismatch is not replayed", conns, len(pulls))
	}

	cn, err := cl.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Discard()
	got = nil
	err = cn.PullSpan(1, wire.Pull{To: wire.PullFollow}, collect(&got))
	if !errors.Is(err, wire.ErrChecksum) || fmt.Sprint(got) != "[0:a]" {
		t.Fatalf("follow pull: err %v after %v, want wire.ErrChecksum after [0:a]", err, got)
	}
}
