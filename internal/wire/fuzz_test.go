package wire

import (
	"bytes"
	"encoding/binary"
	"io"
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
		if s, err := DecodeStats(fr.Payload); err == nil {
			// A legacy v5 payload re-encodes with a zero v6 trailer; the
			// prefix must round trip byte-identically either way.
			out := s.Encode()
			if !bytes.Equal(out[:len(fr.Payload)], fr.Payload) {
				t.Fatal("stats round trip diverged")
			}
			for _, b := range out[len(fr.Payload):] {
				if b != 0 {
					t.Fatal("legacy stats decode invented trailer counters")
				}
			}
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

// FuzzSubscribeDecode feeds arbitrary bytes to the TSubscribe cursor
// decoder. Whatever decodes must re-encode byte-identically (an
// exact-length format, no slack) and must satisfy next >= base — a
// decoder that accepted next < base would let a hostile peer point the
// server's continuity check below the baseline.
func FuzzSubscribeDecode(f *testing.F) {
	f.Add(EncodeSubscribe(Cursor{Base: 3, Next: 9, CRC: 0xdeadbeef}))
	f.Add(EncodeSubscribe(Cursor{Base: 0, Next: 0}))
	f.Add(EncodeSubscribe(Cursor{Base: 7, Next: 7}))
	f.Add(EncodeSubscribe(Cursor{Base: 0xffffffff, Next: 0xffffffff, CRC: 0xffffffff}))
	f.Add(EncodeSubscribe(Cursor{Base: 2, Next: 17, CRC: 1})[:8])    // 8 bytes: the retired ack's length
	f.Add(EncodeSubscribe(Cursor{Base: 9, Next: 3})[:SubscribeSize]) // next below base
	f.Add(append(EncodeSubscribe(Cursor{Base: 1, Next: 4}), 0))      // a trailing byte
	f.Add(EncodeSubscribe(Cursor{Base: 5, Next: 12})[:9])            // 9 bytes: the retired barrier's length
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := DecodeSubscribe(data); err == nil {
			if c.Next < c.Base {
				t.Fatalf("decoded cursor violates next >= base: %+v", c)
			}
			if out := EncodeSubscribe(c); !bytes.Equal(out, data) {
				t.Fatalf("cursor round trip diverged:\n in  %x\n out %x", data, out)
			}
		}
	})
}
