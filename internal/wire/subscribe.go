// Wire v5 subscription payloads: the resume cursor a follower sends
// with TSubscribe, the acknowledgement an accepted subscription gets
// back, and the resync barrier that ends or refuses a tail stream.
//
// The cursor is what makes a dropped stream safe: a connection may end
// at any moment, because the subscriber can always come back with
// {base, next, crc} and either resume exactly where it stopped (the
// server re-verifies continuity by hashing its stored copy of diff
// next-1) or learn via TResync that the baseline moved and it must
// re-pull the authoritative span first.

package wire

import (
	"encoding/binary"
	"fmt"
)

// Sizes of the fixed v5 payloads.
const (
	// SubscribeSize is the TSubscribe request payload length: base,
	// next and crc, each 4 bytes big-endian.
	SubscribeSize = 12
	// SubscribeAckSize is the accepted-subscription response payload
	// length: base and len, each 4 bytes big-endian.
	SubscribeAckSize = 8
	// ResyncSize is the TResync payload length: a reason byte followed
	// by base and len, each 4 bytes big-endian.
	ResyncSize = 9
)

// Resync reasons. Reason 2 is retired and not reused: a frame that
// carries it is refused like any unknown reason.
const (
	// ResyncFold: a compaction fold moved the lineage baseline (or the
	// cursor was otherwise not continuable — wrong base, a gap, or a
	// CRC mismatch against the stored diff). The subscriber must
	// re-pull [Base, Len) before resuming.
	ResyncFold uint8 = 1
	// ResyncShutdown: the server is draining. Nothing is wrong with
	// the cursor; retry against the restarted (or promoted) peer.
	ResyncShutdown uint8 = 3
)

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

// SubscribeAck is the payload of an accepted subscription response:
// the lineage's current baseline and length at acceptance time. Every
// diff in [cursor.Next, Len) is replayed from the store before live
// frames; the subscriber can use Len to report initial catch-up lag.
type SubscribeAck struct {
	Base uint32
	Len  uint32
}

// EncodeSubscribeAck encodes an accepted-subscription response
// payload.
func EncodeSubscribeAck(a SubscribeAck) []byte {
	var b [SubscribeAckSize]byte
	binary.BigEndian.PutUint32(b[0:], a.Base)
	binary.BigEndian.PutUint32(b[4:], a.Len)
	return b[:]
}

// DecodeSubscribeAck parses an accepted-subscription response payload.
func DecodeSubscribeAck(b []byte) (SubscribeAck, error) {
	if len(b) != SubscribeAckSize {
		return SubscribeAck{}, fmt.Errorf("wire: subscribe ack payload is %d bytes, want %d", len(b), SubscribeAckSize)
	}
	a := SubscribeAck{
		Base: binary.BigEndian.Uint32(b[0:]),
		Len:  binary.BigEndian.Uint32(b[4:]),
	}
	if a.Len < a.Base {
		return SubscribeAck{}, fmt.Errorf("wire: subscribe ack len %d below base %d", a.Len, a.Base)
	}
	return a, nil
}

// Resync is the payload of a TResync barrier: why the cursor is not
// continuable and the authoritative [Base, Len) span to re-sync from.
type Resync struct {
	Reason uint8
	Base   uint32
	Len    uint32
}

// EncodeResync encodes a TResync payload.
func EncodeResync(r Resync) []byte {
	return AppendResync(nil, r)
}

// AppendResync appends the encoded barrier to buf and returns the
// extended slice.
func AppendResync(buf []byte, r Resync) []byte {
	buf = append(buf, r.Reason)
	buf = binary.BigEndian.AppendUint32(buf, r.Base)
	buf = binary.BigEndian.AppendUint32(buf, r.Len)
	return buf
}

// DecodeResync parses a TResync payload.
func DecodeResync(b []byte) (Resync, error) {
	if len(b) != ResyncSize {
		return Resync{}, fmt.Errorf("wire: resync payload is %d bytes, want %d", len(b), ResyncSize)
	}
	r := Resync{
		Reason: b[0],
		Base:   binary.BigEndian.Uint32(b[1:]),
		Len:    binary.BigEndian.Uint32(b[5:]),
	}
	if r.Reason != ResyncFold && r.Reason != ResyncShutdown {
		return Resync{}, fmt.Errorf("wire: unknown resync reason %d", r.Reason)
	}
	if r.Len < r.Base {
		return Resync{}, fmt.Errorf("wire: resync len %d below base %d", r.Len, r.Base)
	}
	return r, nil
}

// ResyncReasonString names a resync reason for logs.
func ResyncReasonString(reason uint8) string {
	switch reason {
	case ResyncFold:
		return "fold"
	case ResyncShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("reason(%d)", reason)
	}
}
