package wire

import (
	"bytes"
	"testing"
)

func TestSubscribeCursorRoundTrip(t *testing.T) {
	for _, c := range []Cursor{
		{},
		{Base: 0, Next: 0, CRC: 0},
		{Base: 0, Next: 5, CRC: 0xdeadbeef},
		{Base: 7, Next: 7, CRC: 0},
		{Base: 7, Next: 123, CRC: 0xffffffff},
	} {
		enc := EncodeSubscribe(c)
		if len(enc) != SubscribeSize {
			t.Fatalf("EncodeSubscribe(%+v) = %d bytes, want %d", c, len(enc), SubscribeSize)
		}
		got, err := DecodeSubscribe(enc)
		if err != nil {
			t.Fatalf("DecodeSubscribe(%+v): %v", c, err)
		}
		if got != c {
			t.Fatalf("cursor round trip: got %+v, want %+v", got, c)
		}
		// Append form must produce the same bytes after arbitrary prefix.
		buf := AppendSubscribe([]byte("prefix"), c)
		if !bytes.Equal(buf[6:], enc) {
			t.Fatalf("AppendSubscribe diverged from EncodeSubscribe")
		}
	}
}

func TestSubscribeAckRoundTrip(t *testing.T) {
	for _, a := range []SubscribeAck{
		{},
		{Base: 0, Len: 9},
		{Base: 4, Len: 4},
		{Base: 4, Len: 99},
	} {
		enc := EncodeSubscribeAck(a)
		if len(enc) != SubscribeAckSize {
			t.Fatalf("EncodeSubscribeAck(%+v) = %d bytes, want %d", a, len(enc), SubscribeAckSize)
		}
		got, err := DecodeSubscribeAck(enc)
		if err != nil {
			t.Fatalf("DecodeSubscribeAck(%+v): %v", a, err)
		}
		if got != a {
			t.Fatalf("ack round trip: got %+v, want %+v", got, a)
		}
	}
}

func TestResyncRoundTrip(t *testing.T) {
	for _, r := range []Resync{
		{Reason: ResyncFold, Base: 0, Len: 0},
		{Reason: ResyncFold, Base: 8, Len: 20},
		{Reason: ResyncShutdown, Base: 0, Len: 64},
		{Reason: ResyncShutdown, Base: 3, Len: 3},
	} {
		enc := EncodeResync(r)
		if len(enc) != ResyncSize {
			t.Fatalf("EncodeResync(%+v) = %d bytes, want %d", r, len(enc), ResyncSize)
		}
		got, err := DecodeResync(enc)
		if err != nil {
			t.Fatalf("DecodeResync(%+v): %v", r, err)
		}
		if got != r {
			t.Fatalf("resync round trip: got %+v, want %+v", got, r)
		}
	}
}

// TestSubscribeDecodeTruncated walks every prefix of each well-formed
// v5 payload (plus one trailing byte) through its decoder: only the
// exact length may decode.
func TestSubscribeDecodeTruncated(t *testing.T) {
	cases := []struct {
		name   string
		full   []byte
		decode func([]byte) error
	}{
		{"subscribe", EncodeSubscribe(Cursor{Base: 2, Next: 9, CRC: 0xabad1dea}),
			func(b []byte) error { _, err := DecodeSubscribe(b); return err }},
		{"subscribe-ack", EncodeSubscribeAck(SubscribeAck{Base: 2, Len: 9}),
			func(b []byte) error { _, err := DecodeSubscribeAck(b); return err }},
		{"resync", EncodeResync(Resync{Reason: ResyncShutdown, Base: 2, Len: 9}),
			func(b []byte) error { _, err := DecodeResync(b); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.full); err != nil {
				t.Fatalf("full payload rejected: %v", err)
			}
			for n := 0; n < len(tc.full); n++ {
				if err := tc.decode(tc.full[:n]); err == nil {
					t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(tc.full))
				}
			}
			long := append(append([]byte(nil), tc.full...), 0)
			if err := tc.decode(long); err == nil {
				t.Fatalf("payload with trailing byte decoded without error")
			}
		})
	}
}

func TestSubscribeDecodeRejectsInvariantViolations(t *testing.T) {
	// Cursor with next below base.
	bad := AppendSubscribe(nil, Cursor{Base: 9, Next: 8})
	if _, err := DecodeSubscribe(bad); err == nil {
		t.Fatal("cursor with next < base decoded without error")
	}
	// Ack with len below base.
	var ack [SubscribeAckSize]byte
	ack[3] = 9 // base 9, len 0
	if _, err := DecodeSubscribeAck(ack[:]); err == nil {
		t.Fatal("ack with len < base decoded without error")
	}
	// Resync with unknown reason and with len below base.
	if _, err := DecodeResync(AppendResync(nil, Resync{Reason: 0, Base: 1, Len: 2})); err == nil {
		t.Fatal("resync with reason 0 decoded without error")
	}
	if _, err := DecodeResync(AppendResync(nil, Resync{Reason: ResyncShutdown + 1, Base: 1, Len: 2})); err == nil {
		t.Fatal("resync with out-of-range reason decoded without error")
	}
	// Reason 2, the lag shed of earlier servers, is not a barrier any
	// longer.
	if _, err := DecodeResync(AppendResync(nil, Resync{Reason: 2, Base: 1, Len: 2})); err == nil {
		t.Fatal("resync with the retired lag reason decoded without error")
	}
	if _, err := DecodeResync(AppendResync(nil, Resync{Reason: ResyncFold, Base: 5, Len: 4})); err == nil {
		t.Fatal("resync with len < base decoded without error")
	}
}

func TestResyncReasonString(t *testing.T) {
	for reason, want := range map[uint8]string{
		ResyncFold:     "fold",
		2:              "reason(2)",
		ResyncShutdown: "shutdown",
		77:             "reason(77)",
	} {
		if got := ResyncReasonString(reason); got != want {
			t.Fatalf("ResyncReasonString(%d) = %q, want %q", reason, got, want)
		}
	}
}
