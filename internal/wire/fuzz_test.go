package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// fuzzMaxPayload keeps fuzz-driven allocations small; the declared
// length still exercises the limit check against DefaultMaxPayload-
// sized lies.
const fuzzMaxPayload = 1 << 20

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and, when a
// frame decodes, checks that it survives a write/read round trip
// byte-identically. The payload is additionally interpreted as a
// lineage list and as a stats block, covering both sub-decoders with
// the same corpus.
func FuzzFrameDecode(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &Frame{Type: TPush, Status: StatusOK, Lineage: 7, Ckpt: 3, Payload: []byte("diff")})
	f.Add(buf.Bytes())
	payload, _ := EncodeList([]LineageInfo{{Name: "rank-0", Len: 2, Bytes: 99}})
	buf.Reset()
	_ = WriteFrame(&buf, &Frame{Type: TList, Payload: payload})
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteFrame(&buf, &Frame{Type: TStats, Payload: (&Stats{Requests: 5}).Encode()})
	f.Add(buf.Bytes())
	hdr := make([]byte, HeaderSize)
	binary.BigEndian.PutUint32(hdr[10:], fuzzMaxPayload+1) // over-limit length
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), fuzzMaxPayload)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		consumed := int(fr.WireSize())
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", data[:consumed], out.Bytes())
		}
		// Sub-decoders must never panic on the payload.
		if infos, err := DecodeList(fr.Payload); err == nil {
			if _, err := EncodeList(infos); err != nil {
				t.Fatalf("re-encode of decoded list failed: %v", err)
			}
		}
		if s, err := DecodeStats(fr.Payload); err == nil && !bytes.Equal(s.Encode(), fr.Payload) {
			t.Fatal("stats round trip diverged")
		}
	})
}

// readWriter pairs a read side with a discard write side so Handshake
// can run against fuzz input.
type readWriter struct {
	io.Reader
	io.Writer
}

// FuzzHandshake drives the full hello exchange with arbitrary peer
// bytes: it must accept exactly a well-formed hello advertising
// Version and error on everything else, never panic.
func FuzzHandshake(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteHello(&valid)
	f.Add(valid.Bytes())
	for _, v := range []uint8{Version - 1, Version + 1} {
		other := append([]byte(nil), valid.Bytes()...)
		other[4] = v
		f.Add(other)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rw := &readWriter{Reader: bytes.NewReader(data), Writer: io.Discard}
		err := Handshake(rw)
		wellFormed := len(data) >= HelloSize &&
			binary.BigEndian.Uint32(data) == Magic && data[4] == Version
		if wellFormed && err != nil {
			t.Fatalf("valid hello rejected: %v", err)
		}
		if !wellFormed && err == nil {
			t.Fatalf("malformed hello %x accepted", data)
		}
	})
}

// FuzzStreamAck feeds arbitrary bytes to the v4 ack decoder and, when
// a payload decodes, checks that re-encoding reproduces it
// byte-identically — the decoder must accept exactly the format the
// encoder emits, with no trailing or truncated slack.
func FuzzStreamAck(f *testing.F) {
	seed, _ := AppendStreamAck(nil, &StreamAck{Ckpt: 7, NewLen: 8})
	f.Add(seed)
	seed, _ = AppendStreamAck(nil, &StreamAck{Ckpt: 3, RetryAfterMs: 250, Msg: "server busy"})
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), 0)) // trailing byte
	f.Add(seed[:streamAckFixed-1])                 // truncated fixed prefix
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeStreamAck(data)
		if err != nil {
			return
		}
		out, err := AppendStreamAck(nil, &a)
		if err != nil {
			t.Fatalf("re-encode of decoded ack failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("stream ack round trip diverged:\n in  %x\n out %x", data, out)
		}
	})
}

// FuzzPullDecode feeds arbitrary TPull requests — the header's from
// and a payload — to their decoder, bounded and follow forms alike.
// Whatever decodes must re-encode byte-identically (an exact-length
// format, no slack) and a follow pull must satisfy from >= base — a
// decoder that accepted from < base would let a hostile peer point the
// server's continuity check below the baseline.
func FuzzPullDecode(f *testing.F) {
	follow := func(from, base, crc uint32) []byte {
		return AppendPull(nil, Pull{From: from, To: PullFollow, Base: base, CRC: crc})
	}
	below := follow(9, 9, 0)
	binary.BigEndian.PutUint32(below[4:], 10)
	for _, seed := range []struct {
		from    uint32
		payload []byte
	}{
		{9, follow(9, 3, 0xdeadbeef)},
		{0, follow(0, 0, 0)},
		{7, follow(7, 7, 0)},
		{0xffffffff, follow(0xffffffff, 0xffffffff, 0xffffffff)},
		{17, follow(17, 2, 1)[:8]},      // 8 bytes: the retired ack's length
		{9, below},                      // from below base
		{4, append(follow(4, 1, 0), 0)}, // a trailing byte
		{12, follow(12, 5, 0)[:9]},      // 9 bytes: the retired barrier's length
		{0, nil},
		{3, AppendPull(nil, Pull{From: 3, To: 9})}, // a bounded pull
	} {
		f.Add(seed.from, seed.payload)
	}

	f.Fuzz(func(t *testing.T, from uint32, data []byte) {
		p, err := DecodePull(from, data)
		if err != nil {
			return
		}
		if p.From != from || (p.Follow() && p.From < p.Base) {
			t.Fatalf("decoded pull violates from >= base: %+v", p)
		}
		if out := AppendPull(nil, p); !bytes.Equal(out, data) {
			t.Fatalf("pull round trip diverged:\n in  %x\n out %x", data, out)
		}
	})
}

// chunkReader returns at most n bytes a read: a peer whose bytes arrive
// in short pieces.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// FuzzReadFrameSpare reads a frame declaring a payload of declared
// bytes of which only the first cut bytes of the frame arrive, into a
// scratch of scratchCap bytes, at most short bytes a read (0: as much
// as each read asks). A frame that arrives whole round-trips, a cut one
// fails typed; every buffer handed back is handed back once and shares
// no byte with the scratch (checkHandBack); and the growth bounds of
// ReadFrameInto hold: no buffer the read made is larger than c x the
// payload bytes that arrived (or initialPayloadCap), and it allocated
// at most total + total/c + initialPayloadCap for a whole frame, at
// most (1+c) x arrived + initialPayloadCap for a cut one.
func FuzzReadFrameSpare(f *testing.F) {
	const c = growthFactor
	for _, total := range []uint32{0, 1, initialPayloadCap - 1, initialPayloadCap, initialPayloadCap + 1, 2*initialPayloadCap + 1, 5*initialPayloadCap + 3} {
		for _, n := range []uint32{total, total/c - 1, total / c, total/c + 1} {
			if n <= total {
				f.Add(total, HeaderSize+n, uint32(0), uint16(0))
			}
		}
	}
	f.Add(uint32(300<<10), uint32(HeaderSize+300<<10), uint32(100<<10), uint16(0)) // a reused scratch between initialPayloadCap and total
	f.Add(uint32(300<<10), uint32(HeaderSize+150<<10), uint32(100<<10), uint16(0))
	f.Add(uint32(200<<10), uint32(HeaderSize+200<<10), uint32(0), uint16(1)) // one byte a read
	f.Add(uint32(200<<10), uint32(HeaderSize+100<<10+1), uint32(7), uint16(4093))
	f.Add(uint32(100), uint32(HeaderSize/2), uint32(3), uint16(0))            // cut in the header
	f.Add(uint32(fuzzMaxPayload+1), uint32(HeaderSize), uint32(0), uint16(0)) // over the limit

	f.Fuzz(func(t *testing.T, declared, cut, scratchCap uint32, short uint16) {
		total := int(declared)
		whole := HeaderSize + total
		if declared > fuzzMaxPayload {
			whole = HeaderSize
		}
		n := min(int(cut), whole)
		hdr, err := AppendFrameHeader(nil, TPull, StatusOK, 5, 6, total)
		if err != nil {
			t.Fatal(err)
		}
		sent := payloadOf(int(scratchCap), max(n-HeaderSize, 0))
		var r io.Reader = bytes.NewReader(append(hdr, sent...)[:n])
		if short > 0 {
			r = &chunkReader{r: r, n: int(short)}
		}
		before := make([]byte, 0, min(int(scratchCap), 2*fuzzMaxPayload))
		scratch, spare := before, make([][]byte, 0, 32)
		var fr Frame
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err = ReadFrameSpare(r, fuzzMaxPayload, &fr, &scratch, &spare)
		runtime.ReadMemStats(&ms1)

		planned := total // the payload length the read planned for
		switch {
		case n < HeaderSize:
			planned = 0
			if err == nil {
				t.Fatalf("a frame cut at %d header bytes read back", n)
			}
		case declared > fuzzMaxPayload:
			planned = 0
			if !errors.Is(err, ErrPayloadTooLarge) {
				t.Fatalf("a declared %d-byte payload: err=%v, want ErrPayloadTooLarge", declared, err)
			}
		case n < whole:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("a frame cut at %d of %d bytes: err=%v, want ErrUnexpectedEOF", n, whole, err)
			}
		default:
			if err != nil || fr.Type != TPull || fr.Lineage != 5 || fr.Ckpt != 6 || !bytes.Equal(fr.Payload, sent) {
				t.Fatalf("a whole %d-byte frame read back %d bytes, %v", whole, len(fr.Payload), err)
			}
		}
		arrived := len(sent)
		for _, b := range append(spare[:len(spare):len(spare)], scratch) {
			made := cap(before) == 0 || &b[:1][0] != &before[:1][0]
			if made && cap(b) > max(c*arrived, initialPayloadCap) {
				t.Fatalf("the read made a %d-byte buffer after %d payload bytes arrived", cap(b), arrived)
			}
		}
		allocated := ms1.TotalAlloc - ms0.TotalAlloc
		budget := uint64((1+c)*arrived + initialPayloadCap)
		if n == whole {
			budget = uint64(planned + planned/c + initialPayloadCap)
		}
		if budget += growthSlack(max(planned, c*arrived)); allocated > budget {
			t.Fatalf("%d of %d payload bytes arrived, the read allocated %d, budget %d", arrived, total, allocated, budget)
		}
		if err := checkHandBack(before, scratch, spare, sent, planned); err != nil {
			t.Fatalf("%d of %d payload bytes into a %d-byte scratch: %v", arrived, total, cap(before), err)
		}
	})
}
