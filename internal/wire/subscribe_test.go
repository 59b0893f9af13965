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

// TestSubscribeDecodeTruncated walks every prefix of a well-formed
// cursor (plus one trailing byte) through its decoder: only the exact
// length may decode.
func TestSubscribeDecodeTruncated(t *testing.T) {
	cases := []struct {
		name   string
		full   []byte
		decode func([]byte) error
	}{
		{"subscribe", EncodeSubscribe(Cursor{Base: 2, Next: 9, CRC: 0xabad1dea}),
			func(b []byte) error { _, err := DecodeSubscribe(b); return err }},
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
}
