package gpuckpt

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// The allocation tests below exercise the connection's frame machinery
// hermetically — staged writes are discarded and responses come from
// canned byte slices — because any in-process server goroutine would
// allocate concurrently and pollute the AllocsPerRun counter. The
// end-to-end behavior of the same methods is covered by the client
// tests; these pin down only the steady-state allocation contract: ZERO
// allocations per frame on the push path.

// cannedFrame serializes one response frame for replay.
func cannedFrame(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cannedConn replays canned response bytes and discards requests.
type cannedConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *cannedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// TestClientPushZeroAlloc measures the single-diff push round trip —
// stage [header|checksum] around caller-owned encoded bytes, writev,
// read the OK response — at zero allocations per frame once the
// connection's buffers are warm.
func TestClientPushZeroAlloc(t *testing.T) {
	encoded := encodeFullDiff(t, 0)
	resp := cannedFrame(t, &wire.Frame{Type: wire.TPush})
	r := bytes.NewReader(resp)
	cn := &wireclient.Conn{NC: &cannedConn{r: r}}
	roundTrip := func() {
		r.Reset(resp)
		if err := cn.Push(1, 0, encoded); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the reusable buffers
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Fatalf("push round trip allocates %.1f times per frame, want 0", avg)
	}
}

// TestClientStreamPushZeroAlloc measures the streaming frame path —
// stage the diff prefix with an incremental checksum over the
// scattered sections, writev, consume the out-of-band ack — at zero
// allocations per frame.
func TestClientStreamPushZeroAlloc(t *testing.T) {
	ck := chainCheckpointer(t, 2, 32<<10)
	d, err := ck.diffAt(1)
	if err != nil {
		t.Fatal(err)
	}
	diffAt := func(int) (*checkpoint.Diff, error) { return d, nil }
	payload, err := wire.AppendStreamAck(nil, &wire.StreamAck{Ckpt: 5, NewLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	ack := cannedFrame(t, &wire.Frame{Type: wire.TPushStream, Ckpt: 5, Payload: payload})
	r := bytes.NewReader(ack)
	cn := &wireclient.Conn{NC: &cannedConn{r: r}}
	window := wireclient.Window{Frames: DefaultWindowFrames, Bytes: DefaultWindowBytes}
	frame := func() {
		r.Reset(ack)
		if n, err := cn.StreamPush(3, 5, 6, diffAt, window); err != nil || n != 1 {
			t.Fatalf("stream of one frame: %d acknowledged, %v", n, err)
		}
	}
	frame() // warm the reusable buffers
	if avg := testing.AllocsPerRun(100, frame); avg != 0 {
		t.Fatalf("stream frame allocates %.1f times per frame, want 0", avg)
	}
}

// TestPullSpanAllocBudget pins what assembling a Record from a pulled
// span may allocate: every pulled byte held once, a quarter on top for
// the region index, the decoded metadata and what the increments do not
// fit into the record's slabs, and a constant. The connection's read
// buffer grows up to the largest frame by way of segments it supersedes
// (at most largest/c at wire.ReadFrameInto's c = 2); they are not on
// top, because the record keeps them as the slabs the increments are
// carved from. Measured: 1.21 x the encoded bytes (1.23 x under the
// doubling growth plan, which superseded largest/(c-1); 1.65 x when the
// superseded buffers were dropped and every increment got an allocation
// of its own).
// The span is a baseline followed by increments a sixteenth its size —
// the shape that exercises both ways a diff is kept.
func TestPullSpanAllocBudget(t *testing.T) {
	const (
		frames = 16
		bufLen = 1 << 20
		slack  = 256 << 10
	)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 4096}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	var canned bytes.Buffer
	var total int
	for k := 0; k < frames; k++ {
		if k > 0 {
			off := rng.Intn(bufLen - bufLen/16)
			rng.Read(buf[off : off+bufLen/16])
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := ck.WriteDiff(k, &enc); err != nil {
			t.Fatal(err)
		}
		total += enc.Len()
		canned.Write(cannedFrame(t, &wire.Frame{Type: wire.TPull, Lineage: 1, Ckpt: uint32(k), Payload: wire.EncodePush(enc.Bytes())}))
	}

	cn := &wireclient.Conn{NC: &cannedConn{r: bytes.NewReader(canned.Bytes())}}
	rec := checkpoint.NewRecord()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = cn.PullSpan(1, wire.Pull{To: frames}, recordSink(rec, cn, "lin"))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(total+total/4) + slack
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("assembling %d frames (%d bytes) allocated %d bytes (%.2f x), budget %d",
			frames, total, got, float64(got)/float64(total), budget)
	}
	for _, k := range []int{0, frames / 2, frames - 1} {
		want, err := ck.Restore(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d restored from the pulled record differs (%v)", k, err)
		}
	}
}
