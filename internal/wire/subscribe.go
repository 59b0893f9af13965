// The TSubscribe request payload: the resume cursor a follower sends.
//
// The cursor is what makes a dropped stream safe: a connection may end
// at any moment, because the subscriber can always come back with
// {base, next, crc} and either resume exactly where it stopped (the
// server re-verifies continuity by hashing its stored copy of diff
// next-1) or be refused with StatusSpanMoved and re-pull the lineage's
// current span first. An accepted subscription's answer is an empty
// TSubscribe/StatusOK frame, and the stream it opens ends by closing:
// neither needs a payload of its own.

package wire

import (
	"encoding/binary"
	"fmt"
)

// SubscribeSize is the TSubscribe request payload length: base, next
// and crc, each 4 bytes big-endian.
const SubscribeSize = 12

// Cursor is a subscriber's resume position in a lineage: the baseline
// it believes the lineage has, the next checkpoint id it needs, and
// the CRC32C (Checksum) of the encoded diff Next-1 it already holds —
// zero when Next == Base and it holds nothing. Next counts absolute
// checkpoint ids, so Base <= Next always.
type Cursor struct {
	Base uint32
	Next uint32
	CRC  uint32
}

// EncodeSubscribe encodes a TSubscribe request payload.
func EncodeSubscribe(c Cursor) []byte {
	return AppendSubscribe(nil, c)
}

// AppendSubscribe appends the encoded cursor to buf and returns the
// extended slice (zero-allocation staging, like AppendFrameHeader).
func AppendSubscribe(buf []byte, c Cursor) []byte {
	buf = binary.BigEndian.AppendUint32(buf, c.Base)
	buf = binary.BigEndian.AppendUint32(buf, c.Next)
	buf = binary.BigEndian.AppendUint32(buf, c.CRC)
	return buf
}

// DecodeSubscribe parses a TSubscribe request payload.
func DecodeSubscribe(b []byte) (Cursor, error) {
	if len(b) != SubscribeSize {
		return Cursor{}, fmt.Errorf("wire: subscribe payload is %d bytes, want %d", len(b), SubscribeSize)
	}
	c := Cursor{
		Base: binary.BigEndian.Uint32(b[0:]),
		Next: binary.BigEndian.Uint32(b[4:]),
		CRC:  binary.BigEndian.Uint32(b[8:]),
	}
	if c.Next < c.Base {
		return Cursor{}, fmt.Errorf("wire: subscribe cursor next %d below base %d", c.Next, c.Base)
	}
	return c, nil
}
