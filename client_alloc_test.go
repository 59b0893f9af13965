package gpuckpt

import (
	"bytes"
	"io"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// The allocation tests below exercise the session's frame machinery
// hermetically — staged writes land in io.Discard and responses come
// from canned byte slices — because any in-process server goroutine
// would allocate concurrently and pollute the AllocsPerRun counter.
// The end-to-end behavior of the same methods is covered by the
// client tests; these pin down only the steady-state allocation
// contract: ZERO allocations per frame on the push path.

// cannedFrame serializes one response frame for replay.
func cannedFrame(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClientPushZeroAlloc measures the single-diff push round trip —
// stage [header|checksum] around caller-owned encoded bytes, writev,
// read the OK response — at zero allocations per frame once the
// session's buffers are warm.
func TestClientPushZeroAlloc(t *testing.T) {
	encoded := encodeFullDiff(t, 0)
	resp := cannedFrame(t, &wire.Frame{Type: wire.TPush})
	s := &session{}
	r := bytes.NewReader(resp)
	roundTrip := func() {
		if err := s.stagePush(wire.TPush, 1, 0, encoded); err != nil {
			t.Fatal(err)
		}
		if err := s.writeStaged(io.Discard); err != nil {
			t.Fatal(err)
		}
		r.Reset(resp)
		if err := s.readResp(r, wire.TPush); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the reusable buffers
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Fatalf("push round trip allocates %.1f times per frame, want 0", avg)
	}
}

// TestClientStreamPushZeroAlloc measures the v4 streaming frame path —
// stage the diff prefix with an incremental checksum over the
// scattered sections, writev, consume the out-of-band ack — at zero
// allocations per frame.
func TestClientStreamPushZeroAlloc(t *testing.T) {
	ck := chainCheckpointer(t, 2, 32<<10)
	d, err := ck.diffAt(1)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.AppendStreamAck(nil, &wire.StreamAck{Ckpt: 5, NewLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	ack := cannedFrame(t, &wire.Frame{Type: wire.TPushStream, Ckpt: 5, Payload: payload})
	s := &session{}
	r := bytes.NewReader(ack)
	pushed := 0
	var frameErr error
	frame := func() {
		size, err := s.stageStreamFrame(3, 5, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.writeStaged(io.Discard); err != nil {
			t.Fatal(err)
		}
		s.pending = append(s.pending[:0], inflight{ckpt: 5, size: size})
		r.Reset(ack)
		if _, err := s.consumeAck(r, &pushed, &frameErr); err != nil {
			t.Fatal(err)
		}
	}
	frame() // warm the reusable buffers
	if avg := testing.AllocsPerRun(100, frame); avg != 0 {
		t.Fatalf("stream frame allocates %.1f times per frame, want 0", avg)
	}
	if frameErr != nil {
		t.Fatal(frameErr)
	}
}
