package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// validFrameBytes returns the encoding of a representative frame.
func validFrameBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	f := &Frame{Type: TPush, Status: StatusOK, Lineage: 7, Ckpt: 3, Payload: []byte("diff-bytes")}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validHelloBytes returns the encoding of a handshake message.
func validHelloBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadHelloTruncated truncates the hello at every byte boundary:
// each prefix must fail with a typed error, never hang or panic.
func TestReadHelloTruncated(t *testing.T) {
	valid := validHelloBytes(t)
	for i := 0; i < len(valid); i++ {
		if err := ReadHello(bytes.NewReader(valid[:i])); err == nil {
			t.Errorf("hello truncated to %d bytes decoded", i)
		}
	}
	if err := ReadHello(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid hello: %v", err)
	}
}

func TestReadHelloBadMagic(t *testing.T) {
	valid := validHelloBytes(t)
	for i := 0; i < 4; i++ {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xFF
		if err := ReadHello(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("magic byte %d corrupted: err=%v, want ErrBadMagic", i, err)
		}
	}
}

// TestReadFrameTruncated truncates a valid frame at every byte
// boundary — inside the header and inside the payload.
func TestReadFrameTruncated(t *testing.T) {
	valid := validFrameBytes(t)
	for i := 0; i < len(valid); i++ {
		_, err := ReadFrame(bytes.NewReader(valid[:i]), 0)
		if err == nil {
			t.Errorf("frame truncated to %d bytes decoded", i)
			continue
		}
		if i >= HeaderSize && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("payload truncated to %d bytes: err=%v, want ErrUnexpectedEOF", i, err)
		}
	}
	f, err := ReadFrame(bytes.NewReader(valid), 0)
	if err != nil || string(f.Payload) != "diff-bytes" {
		t.Fatalf("valid frame: %+v err=%v", f, err)
	}
}

// TestReadFrameOversizedPayload checks that a declared length above the
// limit is rejected from the header alone, before any payload bytes are
// read or allocated.
func TestReadFrameOversizedPayload(t *testing.T) {
	hdr := make([]byte, HeaderSize)
	hdr[0] = TPull
	binary.BigEndian.PutUint32(hdr[10:], 1<<20+1)
	_, err := ReadFrame(bytes.NewReader(hdr), 1<<20)
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err=%v, want ErrPayloadTooLarge", err)
	}
	// The reader must not have tried to consume payload bytes.
	r := bytes.NewReader(hdr)
	if _, err := ReadFrame(r, 1<<20); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err=%v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("reader consumed only %d of %d bytes", len(hdr)-r.Len(), len(hdr))
	}
}

// readFrameCost reads one frame from r into scratch and reports what
// that allocated (TotalAlloc, superseded buffers included) and the
// buffer the scratch was left holding.
func readFrameCost(r io.Reader, scratch []byte) (allocated uint64, held int, f Frame, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = ReadFrameInto(r, 0, &f, &scratch)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, cap(scratch), f, err
}

// shortReaders are the ways a frame's bytes can arrive: all at once, in
// halves of what each read asks for, and one byte a read. The last is
// slow, so it is used for frames up to oneByteMax only.
var shortReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"half", iotest.HalfReader},
	{"one-byte", iotest.OneByteReader},
}

const oneByteMax = 2 << 20

// growthSlack is what a measured TotalAlloc may exceed a sum of buffer
// lengths by: the runtime rounds each large allocation up to whole
// 8 KiB pages, and a frame of total bytes is read into at most
// log_c(total/initialPayloadCap) + 2 buffers.
func growthSlack(total int) uint64 {
	steps := 2
	for n := initialPayloadCap; n < total; n *= growthFactor {
		steps++
	}
	return uint64(steps) * 8 << 10
}

// TestReadFrameLyingLength declares a large (but in-limit) payload and
// supplies few bytes, all at once or in short reads: the reader must
// fail with ErrUnexpectedEOF having allocated in proportion to the
// bytes that arrived, not to the length declared — measured, with c =
// growthFactor: the buffer it is left holding is at most c x arrived
// (or initialPayloadCap), and everything it allocated on the way at
// most (1+c) x arrived + initialPayloadCap.
func TestReadFrameLyingLength(t *testing.T) {
	const c = growthFactor
	for _, arrived := range []int{100, initialPayloadCap + 1, 1<<20 + 300, 3 << 20} {
		hdr := make([]byte, HeaderSize)
		hdr[0] = TPush
		binary.BigEndian.PutUint32(hdr[10:], 128<<20)
		frame := append(hdr, bytes.Repeat([]byte{9}, arrived)...)
		for _, sr := range shortReaders {
			if sr.name == "one-byte" && arrived > oneByteMax {
				continue
			}
			allocated, held, _, err := readFrameCost(sr.wrap(bytes.NewReader(frame)), nil)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: %d bytes of a declared 128 MiB: err=%v, want ErrUnexpectedEOF", sr.name, arrived, err)
			}
			if held > max(c*arrived, initialPayloadCap) {
				t.Errorf("%s: %d bytes arrived, the reader holds a %d-byte buffer: more than %d x arrived", sr.name, arrived, held, c)
			}
			if budget := uint64((1+c)*arrived+initialPayloadCap) + growthSlack(c*arrived); allocated > budget {
				t.Errorf("%s: %d bytes arrived, the reader allocated %d, budget %d ((1+%d) x arrived + %d)", sr.name, arrived, allocated, budget, c, initialPayloadCap)
			}
		}
	}
}

// TestReadFrameGrowthBound: a frame that arrives whole, at once or in
// short reads, costs its own bytes plus at most total/c +
// initialPayloadCap in superseded segments, wherever total falls
// between two powers of c — from a fresh scratch, and from a reused one
// larger than initialPayloadCap but smaller than the frame, the buffer
// a server's connection takes from its free list.
func TestReadFrameGrowthBound(t *testing.T) {
	const c = growthFactor
	const reused = 100 << 10
	for _, total := range []int{initialPayloadCap - 1, initialPayloadCap, initialPayloadCap + 1, reused + 1, 1<<20 + 300, 8<<20 + 300} {
		var buf bytes.Buffer
		want := &Frame{Type: TPull, Lineage: 3, Ckpt: 9, Payload: bytes.Repeat([]byte{0xa5, 7, 0}, total/3+1)[:total]}
		if err := WriteFrame(&buf, want); err != nil {
			t.Fatal(err)
		}
		for _, sr := range shortReaders {
			if sr.name == "one-byte" && total > oneByteMax {
				continue
			}
			for _, have := range []int{0, reused} {
				if have >= total {
					continue
				}
				allocated, _, got, err := readFrameCost(sr.wrap(bytes.NewReader(buf.Bytes())), make([]byte, 0, have))
				if err != nil || got.Ckpt != 9 || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("%s: frame of %d bytes into a %d-byte scratch: read back %d bytes, %v", sr.name, total, have, len(got.Payload), err)
				}
				if budget := uint64(total+total/c+initialPayloadCap) + growthSlack(total); allocated > budget {
					t.Errorf("%s: frame of %d bytes into a %d-byte scratch: the reader allocated %d, budget %d (total + total/%d + %d)", sr.name, total, have, allocated, budget, c, initialPayloadCap)
				}
			}
		}
	}
}

// TestDecodeListTruncated truncates an encoded two-entry list at every
// byte boundary: count, name length, name bytes, checkpoint count and
// byte total all sit at different offsets, so this exercises every
// field boundary of the format.
func TestDecodeListTruncated(t *testing.T) {
	payload, err := EncodeList([]LineageInfo{
		{Name: "rank-0", Len: 4, Bytes: 4096},
		{Name: "x", Len: 1, Bytes: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeList(payload[:i]); err == nil {
			t.Errorf("list truncated to %d bytes decoded", i)
		}
	}
	if _, err := DecodeList(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("list with trailing byte decoded")
	}
	infos, err := DecodeList(payload)
	if err != nil || len(infos) != 2 || infos[0].Name != "rank-0" || infos[1].Bytes != 10 {
		t.Fatalf("valid list: %+v err=%v", infos, err)
	}
}

// TestDecodeListLyingCount declares more entries than the payload can
// hold: the decoder must fail without allocating for the declared
// count.
func TestDecodeListLyingCount(t *testing.T) {
	b := binary.BigEndian.AppendUint32(nil, 1<<30)
	if _, err := DecodeList(b); err == nil {
		t.Fatal("list with 2^30 declared entries and no bytes decoded")
	}
}

// TestDecodeStreamAckTruncated truncates an encoded ack (with a
// non-empty message, so the variable tail is exercised) at every byte
// boundary, and rejects trailing slack.
func TestDecodeStreamAckTruncated(t *testing.T) {
	payload, err := AppendStreamAck(nil, &StreamAck{Ckpt: 12, NewLen: 13, RetryAfterMs: 99, Msg: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeStreamAck(payload[:i]); err == nil {
			t.Errorf("stream ack truncated to %d bytes decoded", i)
		}
	}
	if _, err := DecodeStreamAck(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("stream ack with trailing byte decoded")
	}
	a, err := DecodeStreamAck(payload)
	if err != nil || a.Ckpt != 12 || a.NewLen != 13 || a.RetryAfterMs != 99 || a.Msg != "boom" {
		t.Fatalf("valid stream ack: %+v err=%v", a, err)
	}
}

// TestDecodeStreamAckLyingMsgLen declares a message length longer than
// the remaining payload: the decoder must fail, never slice past the
// buffer.
func TestDecodeStreamAckLyingMsgLen(t *testing.T) {
	payload, err := AppendStreamAck(nil, &StreamAck{Ckpt: 1, Msg: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), payload...)
	binary.BigEndian.PutUint16(bad[12:], 1<<15)
	if _, err := DecodeStreamAck(bad); err == nil {
		t.Fatal("stream ack with lying message length decoded")
	}
}

func TestDecodeStatsWrongSize(t *testing.T) {
	valid := (&Stats{Requests: 1, Conns: 2}).Encode()
	for _, n := range []int{0, 1, len(valid) - 1, len(valid) + 1} {
		if _, err := DecodeStats(make([]byte, n)); err == nil {
			t.Errorf("stats payload of %d bytes decoded", n)
		}
	}
	s, err := DecodeStats(valid)
	if err != nil || s.Requests != 1 || s.Conns != 2 {
		t.Fatalf("valid stats: %+v err=%v", s, err)
	}
}
