// Framing: the frame a message travels in, how it is written (whole or
// scatter/gather) and how it is read under an untrusted length.

package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
)

// Frame is one protocol message in either direction.
type Frame struct {
	Type    uint8
	Status  uint8
	Lineage uint32 // lineage handle (TPush/TPull) or assigned handle (TOpen response)
	Ckpt    uint32 // checkpoint id or lineage length, per Type
	Payload []byte
}

// WireSize returns the number of bytes the frame occupies on the wire.
func (f *Frame) WireSize() int64 { return HeaderSize + int64(len(f.Payload)) }

// Err returns the error carried by a non-OK frame, or nil.
func (f *Frame) Err() error {
	if f.Status == StatusOK {
		return nil
	}
	if f.Status == StatusBusy {
		hint, _ := DecodeRetryAfter(f.Payload)
		return &RemoteError{Msg: "server busy", Busy: true, RetryAfter: hint}
	}
	return &RemoteError{
		Msg:           string(f.Payload),
		Unsupported:   f.Status == StatusUnsupported,
		UnknownHandle: f.Status == StatusUnknownHandle,
		SpanMoved:     f.Status == StatusSpanMoved,
	}
}

// WriteFrame writes f as header + payload. The header and payload are
// written separately; both sides buffer their connections, so this
// does not translate into small packets.
func WriteFrame(w io.Writer, f *Frame) error {
	if uint64(len(f.Payload)) > math.MaxUint32 {
		return fmt.Errorf("%w: %d bytes cannot be framed", ErrPayloadTooLarge, len(f.Payload))
	}
	var hdr [HeaderSize]byte
	hdr[0] = f.Type
	hdr[1] = f.Status
	binary.BigEndian.PutUint32(hdr[2:], f.Lineage)
	binary.BigEndian.PutUint32(hdr[6:], f.Ckpt)
	binary.BigEndian.PutUint32(hdr[10:], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("wire: write frame payload: %w", err)
		}
	}
	return nil
}

// AppendFrameHeader appends the 14-byte frame header for a payload of
// payloadLen bytes to buf and returns the extended slice. It is the
// zero-copy counterpart of WriteFrame's header block: the caller
// stages the header (and any payload prefix) in a reused buffer and
// ships the payload segments themselves by reference through
// WriteFrameVec, so large diff bytes are never copied between their
// producer and the socket.
func AppendFrameHeader(buf []byte, typ, status uint8, lineage, ckpt uint32, payloadLen int) ([]byte, error) {
	if payloadLen < 0 || uint64(payloadLen) > math.MaxUint32 {
		return buf, fmt.Errorf("%w: %d bytes cannot be framed", ErrPayloadTooLarge, payloadLen)
	}
	buf = append(buf, typ, status)
	buf = binary.BigEndian.AppendUint32(buf, lineage)
	buf = binary.BigEndian.AppendUint32(buf, ckpt)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payloadLen))
	return buf, nil
}

// WriteFrameVec writes one or more pre-assembled frames as a single
// scatter/gather operation. On a *net.TCPConn, net.Buffers.WriteTo
// lowers to writev(2), so the segments — typically a staged
// [header|checksum|diff prefix] buffer followed by bitmap and data
// slices referenced straight out of the encoder — reach the socket
// without ever being copied into one contiguous payload.
//
// WriteTo consumes vec: on return (success or failure) the slice
// header and its entries have been advanced past whatever was
// written. Callers reusing a persistent vec must re-append segments
// for the next frame rather than re-slicing the old ones.
func WriteFrameVec(w io.Writer, vec *net.Buffers) error {
	if _, err := vec.WriteTo(w); err != nil {
		return fmt.Errorf("wire: writev frame: %w", err)
	}
	return nil
}

// initialPayloadCap bounds the upfront payload allocation of
// ReadFrame: anything larger is grown only as bytes actually arrive,
// so a lying length field below maxPayload still cannot demand a
// large allocation for data that never shows up.
const initialPayloadCap = 64 << 10

// growthFactor is c in ReadFrameInto's bound: no payload buffer is ever
// larger than c times the bytes that have arrived. A larger c would
// supersede less of an honest frame (total/c) and let a lying one hold
// more.
const growthFactor = 2

// ReadFrame reads one frame, rejecting payloads larger than maxPayload
// (0 selects DefaultMaxPayload) before allocating anything. The
// payload buffer starts small and grows as bytes arrive, so the
// declared length is never trusted for the allocation.
func ReadFrame(r io.Reader, maxPayload uint32) (*Frame, error) {
	f := new(Frame)
	var scratch []byte
	if err := ReadFrameInto(r, maxPayload, f, &scratch); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInto reads one frame into f, reusing *scratch as the
// payload buffer. It is the allocation-free form of ReadFrame for hot
// receive loops (streaming acks, pooled connections): once *scratch
// has grown to the connection's steady-state payload size, subsequent
// calls allocate nothing. f.Payload aliases *scratch and is only
// valid until the next call with the same scratch.
//
// The same untrusted-length discipline as ReadFrame applies: a
// declared length is capped by maxPayload (0 selects
// DefaultMaxPayload) before any growth, and memory is allocated only
// as bytes actually arrive. A payload of total bytes that outgrows the
// scratch is read into segments, each no larger than the bytes before
// it and never copied into another, until total/c of it has arrived
// (c = growthFactor); then into the one total-byte buffer, which the
// segments are copied into once and the rest is read into in place. So
// with a fresh scratch:
//
//   - no buffer is ever larger than c x the bytes that have arrived, or
//     initialPayloadCap, whichever is more, however the frame ends;
//   - a frame that arrives whole costs its own total bytes plus at most
//     total/c + initialPayloadCap in superseded segments;
//   - a frame that stops after n bytes has cost at most
//     (1+c) x n + initialPayloadCap in all.
func ReadFrameInto(r io.Reader, maxPayload uint32, f *Frame, scratch *[]byte) error {
	return ReadFrameSpare(r, maxPayload, f, scratch, nil)
}

// ReadFrameSpare is ReadFrameInto that hands back the buffers *scratch
// outgrows instead of dropping them: each one it replaces — the buffer
// it held before the frame, then every segment the payload's growth
// supersedes — is appended to *spare once, in the order it was
// outgrown, and never read into again. A consumer that keeps memory
// (checkpoint.Record.Donate) can own them, so the superseded growth
// stops being waste. A nil spare drops them, as ReadFrameInto does.
func ReadFrameSpare(r io.Reader, maxPayload uint32, f *Frame, scratch *[]byte, spare *[][]byte) error {
	n, err := ReadFrameHeader(r, maxPayload, f, scratch, spare)
	if err != nil || n == 0 {
		return err
	}
	return ReadFramePayload(r, n, f, scratch, spare)
}

// ReadFrameHeader is the first half of ReadFrameSpare: it reads the
// header of the next frame into f and returns the length of the payload
// behind it, refused before anything is read of it if it is larger than
// maxPayload (0 selects DefaultMaxPayload). f.Payload is nil and the n
// payload bytes are still to be read: by ReadFramePayload, or by a
// reader that consumes them as they arrive.
func ReadFrameHeader(r io.Reader, maxPayload uint32, f *Frame, scratch *[]byte, spare *[][]byte) (n uint32, err error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	// The header is staged in the scratch buffer too: a stack array
	// would escape through the io.Reader interface call and cost one
	// allocation per frame. The parsed fields are extracted before the
	// payload read reuses the same bytes.
	buf := *scratch
	if cap(buf) < HeaderSize {
		handBack(spare, buf)
		buf = make([]byte, HeaderSize)
		*scratch = buf
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	f.Type = hdr[0]
	f.Status = hdr[1]
	f.Lineage = binary.BigEndian.Uint32(hdr[2:])
	f.Ckpt = binary.BigEndian.Uint32(hdr[6:])
	f.Payload = nil
	n = binary.BigEndian.Uint32(hdr[10:])
	if n > maxPayload {
		return n, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, n, maxPayload)
	}
	return n, nil
}

// ReadFramePayload is the second half of ReadFrameSpare: it reads the
// n-byte payload of the frame whose header ReadFrameHeader read into f,
// into *scratch, as ReadFrameSpare does.
func ReadFramePayload(r io.Reader, n uint32, f *Frame, scratch *[]byte, spare *[][]byte) error {
	buf := *scratch
	total := int(n)
	if cap(buf) < min(total, initialPayloadCap) {
		handBack(spare, buf)
		buf = make([]byte, min(total, initialPayloadCap))
	}
	buf = buf[:min(total, cap(buf))]
	err := readPayload(r, buf)
	if err == nil && len(buf) < total {
		buf, err = readGrown(r, buf, total, spare)
	}
	*scratch = buf
	if err != nil {
		return err
	}
	f.Payload = buf
	return nil
}

// readGrown reads the rest of a total-byte payload whose first bytes
// fill head, in segments until total/c has arrived, then in place in
// one total-byte buffer that the segments are copied into and handed
// back from. It returns the buffer it read into last: the payload, or
// on failure the one segment it did not hand back.
func readGrown(r io.Reader, head []byte, total int, spare *[][]byte) ([]byte, error) {
	// Every segment but the last doubles what has arrived, from at
	// least initialPayloadCap (2^16) to below total/c <= 2^31, so head
	// and at most 15 segments are held and the list stays on the stack.
	segs := append(make([][]byte, 0, 16), head)
	filled, need := len(head), (total+growthFactor-1)/growthFactor
	for filled < need {
		seg := make([]byte, min(filled, need-filled))
		if err := readPayload(r, seg); err != nil {
			for _, s := range segs {
				handBack(spare, s)
			}
			return seg, err
		}
		segs = append(segs, seg)
		filled += len(seg)
	}
	buf := make([]byte, total)
	at := 0
	for _, s := range segs {
		at += copy(buf[at:], s)
		handBack(spare, s)
	}
	return buf, readPayload(r, buf[filled:])
}

// readPayload fills b from r. The header promised these bytes, so EOF
// is a truncated frame, not a clean end of stream.
func readPayload(r io.Reader, b []byte) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: read frame payload: %w", err)
	}
	return nil
}

// handBack appends an outgrown buffer to *spare, when the caller keeps
// them.
func handBack(spare *[][]byte, b []byte) {
	if spare != nil && cap(b) > 0 {
		*spare = append(*spare, b[:0])
	}
}
