// Package wire defines the framed binary protocol spoken between the
// ckptd checkpoint server and its clients.
//
// The protocol is deliberately minimal — the shape of blox's
// WriteFrame/ReadFrame transport: a fixed-size big-endian frame header
// carrying a request type, a status byte, two 32-bit ids (lineage
// handle and checkpoint id) and the payload length, followed by the
// payload bytes. A connection starts with a 6-byte hello exchange
// (magic + protocol version + flags) in both directions; every frame
// read is guarded by a configurable maximum payload size so a corrupt
// or hostile peer cannot demand an unbounded allocation.
//
// Request/response pairing is strictly sequential per connection: the
// client writes one request frame and reads exactly one response frame
// of the same type (Status reports success or failure; error responses
// carry the message in the payload). This keeps the server loop
// trivial and makes the client's retry-on-transient-error logic safe:
// a broken connection can always be replayed by re-sending the request
// on a fresh connection. Two request types leave that mode: a run of
// TPushStream frames is pipelined (acknowledgements return out of
// order, keyed by checkpoint id), and a TPull is answered by one frame
// per checkpoint of the span it names — a span that, for a follow
// pull, does not end: the server streams every later diff too and ends
// the stream by closing the connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"time"
)

// Protocol constants.
const (
	// Magic opens every hello ("CKPD" big-endian).
	Magic uint32 = 0x434b5044
	// Version is the one protocol version this build speaks. Every
	// peer is built from the same source tree, so there is nothing to
	// negotiate: both ends refuse a hello advertising any other version
	// with a *VersionError before a single frame is exchanged.
	Version uint8 = 10
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 14
	// HelloSize is the handshake message length in bytes.
	HelloSize = 6
	// DefaultMaxPayload bounds a frame payload unless overridden: 256
	// MiB comfortably holds any realistic encoded diff while keeping a
	// lying length field from demanding gigabytes.
	DefaultMaxPayload = 256 << 20
)

// Frame types (requests and their responses share the type byte).
const (
	// TOpen resolves a lineage name (payload) to a numeric handle; the
	// response carries the handle in Lineage and the current number of
	// stored checkpoints in Ckpt.
	TOpen uint8 = iota + 1
	// TPush appends one encoded diff (payload) as checkpoint Ckpt of
	// lineage Lineage; the response's Ckpt is the new length.
	TPush
	// TPull (v7) fetches the span [Ckpt, to) of lineage Lineage; the
	// payload (AppendPull) carries to. The server validates the span
	// against one snapshot of the lineage and answers with to-Ckpt
	// TPull/StatusOK frames in id order, header Ckpt the checkpoint id and
	// payload the TPush layout (v9): a CRC32C prefix, then the canonical
	// encoded diff, verified in full before its first byte is sent. A
	// non-OK TPull frame (header Ckpt the id it could not serve) ends the
	// stream early; either way the connection is back in request mode
	// after the last frame. A fold that replaces the lineage under the
	// stream ends it with StatusSpanMoved, never with diffs of two
	// generations.
	//
	// A follow pull (v9: to is PullFollow) is a subscription. Its payload
	// also carries the puller's cursor: the baseline it mirrors and the
	// CRC32C of the diff Ckpt-1 it holds. A cursor the server cannot
	// continue gets a StatusSpanMoved error frame and the connection
	// stays in request mode, so the puller can pull the lineage's current
	// span over it and follow again. An accepted follow pull consumes the
	// connection: the server sends [Ckpt, Len) and then every diff
	// appended later, and ends the stream by closing the connection.
	TPull
	// TList returns the server's lineage directory (EncodeList).
	TList
	// TStats returns the server's counters (Stats.Encode).
	TStats
	// TCompact folds lineage Lineage up to baseline Ckpt (CompactAuto
	// lets the server's retention policy pick the target); the
	// response carries the new baseline in Ckpt and a CompactResult
	// payload.
	TCompact
	// TPolicy sets the retention policy of lineage Lineage to the
	// payload string (empty payload = query only); the response
	// carries the current policy in the payload and the baseline in
	// Ckpt.
	TPolicy
	// TPushStream (v4) is the pipelined form of TPush: the client
	// keeps a window of TPushStream frames in flight without waiting
	// for responses, and the server answers each with a StreamAck
	// payload echoing the checkpoint id in both the header Ckpt field
	// and the payload, so acknowledgements can be matched in any
	// order. A failed frame produces an error-status ack (StatusErr,
	// StatusBusy or StatusUnknownHandle) on the same connection — one
	// bad diff never tears the stream.
	TPushStream
	// Type bytes 9-11 carried the subscription request, its tail frames
	// (v5-v8) and its barrier (v5-v7); a subscription is a follow pull
	// since v9. They are retired in place, so every later type keeps its
	// byte, and they are never reused.
	_
	_
	_
	// TDigest (v6; v10 layout) asks for a digest of lineage Lineage.
	// The request payload (EncodeDigestReq) names a checkpoint span; the
	// response carries a DigestResp — the lineage's manifest coordinates
	// (base, length, compaction generation) plus one content checksum
	// per diff of the span, clipped to the stored span and to
	// DigestMaxDetail ids. The anti-entropy reconciler walks a span
	// window by window; the connection stays in request/response mode
	// throughout.
	TDigest
	// TErr is an unsolicited server error (e.g. connection limit
	// reached), sent without a matching request.
	TErr uint8 = 0xFF
)

// CompactAuto, as the Ckpt field of a TCompact request, asks the
// server to pick the compaction target from the lineage's retention
// policy instead of an explicit index.
const CompactAuto uint32 = math.MaxUint32

// Status bytes.
const (
	// StatusOK marks a successful response.
	StatusOK uint8 = 0
	// StatusErr marks a failed response; the payload holds the error
	// message.
	StatusErr uint8 = 1
	// StatusUnsupported marks a request whose type byte the server
	// does not implement — a client probing a newer operation against
	// an older server gets a typed error (ErrUnsupported) instead of a
	// torn connection.
	StatusUnsupported uint8 = 2
	// StatusBusy marks a request the server shed under load (connection
	// limit or per-lineage queue saturation). The payload carries a
	// retry-after hint (EncodeRetryAfter); the request was NOT executed,
	// so replaying it after backing off is always safe.
	StatusBusy uint8 = 3
	// StatusUnknownHandle (v4) marks a request whose Lineage handle
	// the server does not recognize — the handle epoch changed
	// underneath the client (server restart, pool reconnect). The
	// request was not executed; re-resolving the lineage name with
	// TOpen and replaying is always safe.
	StatusUnknownHandle uint8 = 4
	// StatusSpanMoved (v7) marks a TPull whose span is not servable from
	// one generation of the lineage: a compaction folded its start away,
	// or replaced the lineage while the span was streaming. Nothing the
	// frames before it carried is wrong; re-opening the lineage and
	// pulling the span it reports now is always safe. It also refuses a
	// follow pull whose cursor the server cannot continue.
	StatusSpanMoved uint8 = 5
)

// Errors.
var (
	// ErrBadMagic reports a hello that does not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrPayloadTooLarge reports a frame whose declared payload
	// exceeds the reader's limit.
	ErrPayloadTooLarge = errors.New("wire: payload exceeds frame limit")
	// ErrUnsupported matches (via errors.Is) a RemoteError carried by
	// a StatusUnsupported response: the peer answered cleanly but does
	// not implement the request.
	ErrUnsupported = errors.New("wire: unsupported request")
	// ErrBusy matches (via errors.Is) a RemoteError carried by a
	// StatusBusy response: the peer shed the request under load. It is
	// the one RemoteError a client should retry, after honoring the
	// RetryAfter hint.
	ErrBusy = errors.New("wire: server busy")
	// ErrChecksum reports a TPush payload or pulled frame whose CRC32C
	// prefix does not match the encoded diff that follows it.
	ErrChecksum = errors.New("wire: push payload checksum mismatch")
	// ErrUnknownHandle matches (via errors.Is) a RemoteError carried by
	// a StatusUnknownHandle response: the lineage handle the request
	// named is from a stale epoch. The request was not executed; the
	// client recovers by dropping its cached handle, re-opening the
	// lineage by name and replaying.
	ErrUnknownHandle = errors.New("wire: unknown lineage handle")
	// ErrSpanMoved matches (via errors.Is) a RemoteError carried by a
	// StatusSpanMoved response: a compaction moved the lineage out from
	// under the pulled span or the follow pull's cursor. The client recovers
	// by re-opening the lineage and pulling its current span.
	ErrSpanMoved = errors.New("wire: pulled span moved")
	// ErrUnexpectedResponse reports a response frame whose type does not
	// answer the request that was sent. The stream is out of step with
	// the peer, so the connection is discarded and the failure is
	// terminal.
	ErrUnexpectedResponse = errors.New("wire: response does not answer the request")
)

// RemoteError is a failure reported by the peer through a StatusErr,
// StatusUnsupported or StatusBusy frame. It is a clean protocol-level
// outcome — the connection is still usable — so clients must not treat
// it as transient, with one exception: a Busy rejection was shed
// before execution and should be replayed after RetryAfter.
type RemoteError struct {
	Msg string
	// Unsupported marks a StatusUnsupported response: the peer does
	// not implement the request type. errors.Is(err, ErrUnsupported)
	// reports it.
	Unsupported bool
	// Busy marks a StatusBusy response: the peer shed the request
	// under load without executing it. errors.Is(err, ErrBusy)
	// reports it; RetryAfter carries the peer's backoff hint.
	Busy       bool
	RetryAfter time.Duration
	// UnknownHandle marks a StatusUnknownHandle response: the lineage
	// handle belongs to a stale epoch and the request was not executed.
	// errors.Is(err, ErrUnknownHandle) reports it.
	UnknownHandle bool
	// SpanMoved marks a StatusSpanMoved response: a compaction moved the
	// lineage out from under a pulled span. errors.Is(err, ErrSpanMoved)
	// reports it.
	SpanMoved bool
}

func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// Is lets errors.Is match an unsupported-operation, busy,
// unknown-handle or span-moved RemoteError against its sentinel.
func (e *RemoteError) Is(target error) bool {
	return (target == ErrUnsupported && e.Unsupported) ||
		(target == ErrBusy && e.Busy) ||
		(target == ErrUnknownHandle && e.UnknownHandle) ||
		(target == ErrSpanMoved && e.SpanMoved)
}

// EncodeRetryAfter serializes a StatusBusy retry-after hint as a
// 4-byte big-endian millisecond count (clamped to the uint32 range).
func EncodeRetryAfter(d time.Duration) []byte {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	return binary.BigEndian.AppendUint32(nil, uint32(ms))
}

// DecodeRetryAfter parses a StatusBusy payload. A malformed or empty
// payload decodes as a zero hint rather than an error: the rejection
// itself is the signal, the hint is advisory.
func DecodeRetryAfter(b []byte) (time.Duration, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("wire: retry-after payload %d bytes, want 4", len(b))
	}
	return time.Duration(binary.BigEndian.Uint32(b)) * time.Millisecond, nil
}

// Transient reports whether err warrants replaying the request on a
// fresh (or, for a busy rejection, the same) connection. It is the
// single classification point for every error that crosses the
// client/server wire boundary — the ckptlint `retryable` check keeps
// ad-hoc Timeout()/io.EOF tests from growing back elsewhere.
//
// Transient: deadline expiries and every net.Error timeout, torn
// connections (EOF, unexpected EOF, ECONNRESET, EPIPE), refused or
// unreachable dials (the peer may be restarting), and StatusBusy
// rejections. Terminal: every other RemoteError (the server executed
// or rejected the request — replaying would duplicate work or fail
// identically), protocol violations (bad magic, a version mismatch,
// oversized frames, checksum mismatches, a response of the wrong type)
// and operations on a connection this process
// already closed (net.ErrClosed: retrying a deliberate Close is a
// bug, not a network fault).
//
// Unknown errors default to transient: the PUSH content-hash
// precondition makes replays idempotent, so the cost of a wasted
// retry is bounded while the cost of giving up on a recoverable
// fault is a failed checkpoint.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Busy
	}
	if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrPayloadTooLarge) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrUnexpectedResponse) {
		return false
	}
	var ve *VersionError
	if errors.As(err, &ve) {
		return false
	}
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	// Everything else — net.Error timeouts, os.ErrDeadlineExceeded,
	// EOF/ErrUnexpectedEOF, ECONNRESET/EPIPE/ECONNREFUSED, and errors
	// this function has never seen — is transient.
	return true
}

// IsClean reports whether err is a clean connection shutdown — the
// peer finished and closed (EOF) or this process closed the
// connection itself (net.ErrClosed). Servers use it to keep routine
// disconnects out of the error log; it never justifies a retry.
func IsClean(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// VersionError reports a hello advertising a protocol version other
// than Version. Both ends raise it and drop the connection before any
// frame is exchanged; it is terminal (see Transient) — redialing the
// same peer would read the same hello.
type VersionError struct {
	// Peer is the version the other side advertised.
	Peer uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version mismatch: peer %d, ours %d", e.Peer, Version)
}

// WriteHello writes the 6-byte handshake: magic, Version, flags.
func WriteHello(w io.Writer) error {
	var b [HelloSize]byte
	binary.BigEndian.PutUint32(b[0:], Magic)
	b[4] = Version
	b[5] = 0 // flags, reserved
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("wire: write hello: %w", err)
	}
	return nil
}

// ReadHello reads and validates the peer's handshake: ErrBadMagic for
// a stream that is not this protocol at all, a *VersionError for a
// peer speaking any version but ours.
func ReadHello(r io.Reader) error {
	var b [HelloSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("wire: read hello: %w", err)
	}
	if binary.BigEndian.Uint32(b[0:]) != Magic {
		return ErrBadMagic
	}
	if b[4] != Version {
		return &VersionError{Peer: b[4]}
	}
	return nil
}

// Handshake performs the dialing side of the hello exchange: write
// ours, read and validate theirs. The accepting side reads first (see
// internal/server) and answers even a mismatched hello, so both ends
// of a refused connection report the same *VersionError.
func Handshake(rw io.ReadWriter) error {
	if err := WriteHello(rw); err != nil {
		return err
	}
	return ReadHello(rw)
}

// PushChecksumSize is the length of the CRC32C prefix a v3 TPush
// payload carries ahead of the encoded diff bytes.
const PushChecksumSize = 4

// castagnoli is the CRC32C polynomial table shared by the push
// precondition and the FileStore's on-disk record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) checksum of b — the
// content hash of the v3 push precondition.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumAdd extends a running CRC32C with b, so a checksum over
// scattered payload segments can be computed without first gathering
// them into one buffer: ChecksumAdd(ChecksumAdd(0, a), b) equals
// Checksum(append(a, b...)), and ChecksumAdd(0, b) equals Checksum(b).
func ChecksumAdd(sum uint32, b []byte) uint32 { return crc32.Update(sum, castagnoli, b) }

// EncodePush builds a v3 TPush payload: a big-endian CRC32C of the
// encoded diff, then the diff bytes themselves. The server verifies
// the prefix on arrival and, when the pushed checkpoint id is already
// stored, compares it against the stored bytes' checksum — an
// identical replay (a retry whose original response was lost) succeeds
// idempotently, a conflicting write is rejected.
func EncodePush(encoded []byte) []byte {
	buf := make([]byte, PushChecksumSize+len(encoded))
	binary.BigEndian.PutUint32(buf, Checksum(encoded))
	copy(buf[PushChecksumSize:], encoded)
	return buf
}

// DecodePush splits a v3 TPush payload into its checksum and encoded
// diff, verifying the prefix against the bytes that follow it.
func DecodePush(payload []byte) (crc uint32, encoded []byte, err error) {
	if len(payload) < PushChecksumSize {
		return 0, nil, fmt.Errorf("wire: push payload %d bytes, want at least %d", len(payload), PushChecksumSize)
	}
	crc = binary.BigEndian.Uint32(payload)
	encoded = payload[PushChecksumSize:]
	if Checksum(encoded) != crc {
		return 0, nil, fmt.Errorf("%w: declared %08x, computed %08x", ErrChecksum, crc, Checksum(encoded))
	}
	return crc, encoded, nil
}

// StreamAck is the response payload of one TPushStream frame. The
// frame header's Ckpt field echoes the acknowledged checkpoint id; the
// payload repeats it so an ack pulled out of a window of in-flight
// frames is self-describing even when the header is all the client
// kept. Status rides in the frame header exactly as for TPush — an
// error ack carries the message here instead of as a bare StatusErr
// payload, so the stream stays framed.
type StreamAck struct {
	// Ckpt is the checkpoint id this ack settles (== header Ckpt).
	Ckpt uint32
	// NewLen is the lineage length after a successful append; for an
	// idempotent replay hit it is the unchanged length. Zero on error.
	NewLen uint32
	// RetryAfterMs carries the backoff hint of a StatusBusy ack in
	// milliseconds; zero otherwise.
	RetryAfterMs uint32
	// Msg is the error message of a non-OK ack; empty on success.
	Msg string
}

// streamAckFixed is the fixed-size prefix of a StreamAck payload:
// ckpt, new length, retry-after, and the 2-byte message length.
const streamAckFixed = 4 + 4 + 4 + 2

// AppendStreamAck appends the encoded ack to buf and returns the
// extended slice, so a per-connection staging buffer can carry ack
// after ack without reallocating. It fails rather than truncate a
// message that does not fit the 2-byte length field.
func AppendStreamAck(buf []byte, a *StreamAck) ([]byte, error) {
	if len(a.Msg) > math.MaxUint16 {
		return buf, fmt.Errorf("wire: stream ack message of %d bytes exceeds the format limit", len(a.Msg))
	}
	buf = binary.BigEndian.AppendUint32(buf, a.Ckpt)
	buf = binary.BigEndian.AppendUint32(buf, a.NewLen)
	buf = binary.BigEndian.AppendUint32(buf, a.RetryAfterMs)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Msg)))
	buf = append(buf, a.Msg...)
	return buf, nil
}

// DecodeStreamAck parses a TPushStream response payload.
func DecodeStreamAck(b []byte) (StreamAck, error) {
	if len(b) < streamAckFixed {
		return StreamAck{}, fmt.Errorf("wire: stream ack payload %d bytes, want at least %d", len(b), streamAckFixed)
	}
	a := StreamAck{
		Ckpt:         binary.BigEndian.Uint32(b[0:]),
		NewLen:       binary.BigEndian.Uint32(b[4:]),
		RetryAfterMs: binary.BigEndian.Uint32(b[8:]),
	}
	msgLen := int(binary.BigEndian.Uint16(b[12:]))
	if len(b) != streamAckFixed+msgLen {
		return StreamAck{}, fmt.Errorf("wire: stream ack payload %d bytes, want %d", len(b), streamAckFixed+msgLen)
	}
	a.Msg = string(b[streamAckFixed:])
	return a, nil
}

// Err maps a stream ack received under the given frame status to the
// same typed errors a TPush response would produce: nil for StatusOK,
// a RemoteError (busy / unsupported / unknown-handle / span-moved flags
// set from the status, RetryAfter from the hint) otherwise.
func (a *StreamAck) Err(status uint8) error {
	if status == StatusOK {
		return nil
	}
	msg := a.Msg
	if msg == "" && status == StatusBusy {
		msg = "server busy"
	}
	return &RemoteError{
		Msg:           msg,
		Unsupported:   status == StatusUnsupported,
		Busy:          status == StatusBusy,
		RetryAfter:    time.Duration(a.RetryAfterMs) * time.Millisecond,
		UnknownHandle: status == StatusUnknownHandle,
		SpanMoved:     status == StatusSpanMoved,
	}
}

// StreamFrameError reports the failure of one frame inside a push
// stream: the surrounding stream (and the checkpoints acked around
// it) completed or failed independently. Unwrap exposes the
// underlying typed error, so errors.Is(err, ErrBusy) and friends see
// through it.
type StreamFrameError struct {
	// Ckpt is the checkpoint id of the failed frame.
	Ckpt uint32
	// Err is the per-frame failure — usually a RemoteError decoded
	// from an error-status ack.
	Err error
}

func (e *StreamFrameError) Error() string {
	return fmt.Sprintf("wire: stream push of checkpoint %d: %v", e.Ckpt, e.Err)
}

func (e *StreamFrameError) Unwrap() error { return e.Err }

// LineageInfo is one entry of the TList response.
type LineageInfo struct {
	Name  string
	Len   uint32 // one past the highest stored checkpoint index
	Base  uint32 // baseline index; stored diffs span [Base, Len)
	Bytes uint64 // total stored diff bytes
}

// EncodeList serializes a TList response payload. It fails rather
// than truncate a count or name length that does not fit the format.
func EncodeList(infos []LineageInfo) ([]byte, error) {
	if uint64(len(infos)) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: %d lineages exceed the list format limit", len(infos))
	}
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(infos)))
	for _, in := range infos {
		if len(in.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("wire: lineage name of %d bytes exceeds the list format limit", len(in.Name))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(in.Name)))
		buf = append(buf, in.Name...)
		buf = binary.BigEndian.AppendUint32(buf, in.Len)
		buf = binary.BigEndian.AppendUint32(buf, in.Base)
		buf = binary.BigEndian.AppendUint64(buf, in.Bytes)
	}
	return buf, nil
}

// DecodeList parses a TList response payload.
func DecodeList(b []byte) ([]LineageInfo, error) {
	if len(b) < 4 {
		return nil, errors.New("wire: truncated lineage list")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	// The smallest entry is 18 bytes, so the payload bounds the entry
	// count — never allocate on the declared count alone.
	infos := make([]LineageInfo, 0, min(int(n), len(b)/18))
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return nil, errors.New("wire: truncated lineage entry")
		}
		nameLen := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < nameLen+16 {
			return nil, errors.New("wire: truncated lineage entry")
		}
		in := LineageInfo{
			Name:  string(b[:nameLen]),
			Len:   binary.BigEndian.Uint32(b[nameLen:]),
			Base:  binary.BigEndian.Uint32(b[nameLen+4:]),
			Bytes: binary.BigEndian.Uint64(b[nameLen+8:]),
		}
		if in.Base > in.Len {
			return nil, fmt.Errorf("wire: lineage %q baseline %d beyond length %d", in.Name, in.Base, in.Len)
		}
		infos = append(infos, in)
		b = b[nameLen+16:]
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after lineage list")
	}
	return infos, nil
}

// PullFollow, as the end of a TPull span, makes it a follow pull: a
// span that does not end.
const PullFollow uint32 = math.MaxUint32

// Pull is a TPull request: the span [From, To) of a lineage, From riding
// in the frame header's Ckpt field. A follow pull (To == PullFollow)
// also carries the puller's cursor: Base, the baseline it believes the
// lineage has, and CRC, the CRC32C (Checksum) of the encoded diff
// From-1 it holds — zero when From == Base and it holds nothing.
type Pull struct {
	From, To  uint32
	Base, CRC uint32
}

// Follow reports whether p is a follow pull.
func (p Pull) Follow() bool { return p.To == PullFollow }

// AppendPull appends p's request payload to buf — To, then for a follow
// pull Base and CRC, each 4 bytes big-endian — and returns the extended
// slice.
func AppendPull(buf []byte, p Pull) []byte {
	buf = binary.BigEndian.AppendUint32(buf, p.To)
	if p.Follow() {
		buf = binary.BigEndian.AppendUint32(buf, p.Base)
		buf = binary.BigEndian.AppendUint32(buf, p.CRC)
	}
	return buf
}

// DecodePull parses a TPull request: from is the header's Ckpt, b the
// payload. A follow pull's cursor must have From >= Base.
func DecodePull(from uint32, b []byte) (Pull, error) {
	p := Pull{From: from}
	want := 4
	if len(b) >= 4 {
		if p.To = binary.BigEndian.Uint32(b); p.Follow() {
			want = 12
		}
	}
	if len(b) != want {
		return Pull{}, fmt.Errorf("wire: pull payload %d bytes, want %d", len(b), want)
	}
	if p.Follow() {
		p.Base, p.CRC = binary.BigEndian.Uint32(b[4:]), binary.BigEndian.Uint32(b[8:])
		if p.From < p.Base {
			return Pull{}, fmt.Errorf("wire: follow pull from %d below base %d", p.From, p.Base)
		}
	}
	return p, nil
}

// EncodeOpenInfo serializes the extra payload of a TOpen response: the
// lineage's baseline index (the response header's Ckpt field carries
// the length).
func EncodeOpenInfo(base uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, base)
}

// DecodeOpenInfo parses a TOpen response payload.
func DecodeOpenInfo(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("wire: open info payload %d bytes, want 4", len(b))
	}
	return binary.BigEndian.Uint32(b), nil
}

// CompactResult is the payload of a successful TCompact response.
type CompactResult struct {
	// OldBase and NewBase are the baseline before and after the
	// transaction; equal for a no-op.
	OldBase, NewBase uint32
	// Pruned counts deleted diff files; Rewritten counts retained
	// diffs rewritten to drop references into the folded prefix.
	Pruned, Rewritten uint32
	// FreedBytes is the net on-disk byte change (signed: a baseline
	// can cost more than a short folded prefix freed).
	FreedBytes int64
}

const compactResultSize = 4 + 4 + 4 + 4 + 8

// Encode serializes the compaction result.
func (r *CompactResult) Encode() []byte {
	buf := make([]byte, 0, compactResultSize)
	buf = binary.BigEndian.AppendUint32(buf, r.OldBase)
	buf = binary.BigEndian.AppendUint32(buf, r.NewBase)
	buf = binary.BigEndian.AppendUint32(buf, r.Pruned)
	buf = binary.BigEndian.AppendUint32(buf, r.Rewritten)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.FreedBytes))
	return buf
}

// DecodeCompactResult parses a TCompact response payload.
func DecodeCompactResult(b []byte) (CompactResult, error) {
	if len(b) != compactResultSize {
		return CompactResult{}, fmt.Errorf("wire: compact result payload %d bytes, want %d",
			len(b), compactResultSize)
	}
	r := CompactResult{
		OldBase:    binary.BigEndian.Uint32(b[0:]),
		NewBase:    binary.BigEndian.Uint32(b[4:]),
		Pruned:     binary.BigEndian.Uint32(b[8:]),
		Rewritten:  binary.BigEndian.Uint32(b[12:]),
		FreedBytes: int64(binary.BigEndian.Uint64(b[16:])),
	}
	if r.NewBase < r.OldBase {
		return CompactResult{}, fmt.Errorf("wire: compact result moves baseline backwards: %d -> %d",
			r.OldBase, r.NewBase)
	}
	return r, nil
}

// Stats is the TStats response: the server's atomic counters.
type Stats struct {
	// Requests counts frames the server accepted as requests
	// (including the TStats request that reported them).
	Requests uint64
	// BytesIn / BytesOut count frame bytes (header + payload) received
	// from and sent to clients, hellos included.
	BytesIn, BytesOut uint64
	// ActiveConns is the number of connections currently being served.
	ActiveConns uint64
	// Conns counts connections accepted over the server's lifetime.
	Conns uint64
	// Lineages is the number of opened lineages.
	Lineages uint64
	// Compactions counts committed compaction transactions that moved
	// a baseline forward (background worker and TCompact requests).
	Compactions uint64
	// CompactedDiffs counts diff files deleted by compactions.
	CompactedDiffs uint64
	// ReclaimedBytes sums the net on-disk bytes freed by compactions
	// (transactions with a negative net change contribute zero).
	ReclaimedBytes uint64
	// BusyRejects counts requests and connections shed with StatusBusy
	// (load shedding, not failures: the work was never started).
	BusyRejects uint64
	// BlocksInterned counts unique blocks written to the shared
	// content-addressed block store; BlockDedupHits counts appends
	// resolved to an already-present block.
	BlocksInterned, BlockDedupHits uint64
	// BlockBytesSaved sums the payload bytes de-duplication avoided
	// writing — the cross-lineage sharing win.
	BlockBytesSaved uint64
	// BlockGCBlocks / BlockGCBytes count blocks and payload bytes
	// reclaimed by committed block-store GC transactions.
	BlockGCBlocks, BlockGCBytes uint64
	// Quarantined is a gauge: the stored diffs found damaged when
	// their lineage was opened and not healed since, summed over every
	// open lineage (FileStore.DamagedIDs) — the operator's rot alarm.
	Quarantined uint64
	// DigestRounds counts completed anti-entropy digest rounds
	// (one round = one digest comparison against one peer, per
	// lineage, whether or not it found divergence).
	DigestRounds uint64
	// SpansHealed counts diffs repaired or re-installed from a
	// peer by the anti-entropy reconciler.
	SpansHealed uint64
	// BytesRefetched sums the encoded diff bytes pulled from
	// peers by anti-entropy heals.
	BytesRefetched uint64
	// HealQuarantines counts lineages the reconciler fail-stopped
	// — divergence it could not heal (both replicas rotten, content
	// conflict, repeated heal failure) — never silently ignored.
	HealQuarantines uint64
	// Degraded is a gauge: peers currently unreachable (the
	// reconciler is backing off and the cluster is running with less
	// redundancy than configured).
	Degraded uint64
}

// statsSize is the encoded size of the 21 counters.
const statsSize = 21 * 8

// fields returns pointers to every counter in wire order.
func (s *Stats) fields() [21]*uint64 {
	return [21]*uint64{&s.Requests, &s.BytesIn, &s.BytesOut, &s.ActiveConns, &s.Conns, &s.Lineages,
		&s.Compactions, &s.CompactedDiffs, &s.ReclaimedBytes, &s.BusyRejects,
		&s.BlocksInterned, &s.BlockDedupHits, &s.BlockBytesSaved, &s.BlockGCBlocks, &s.BlockGCBytes,
		&s.Quarantined, &s.DigestRounds, &s.SpansHealed, &s.BytesRefetched, &s.HealQuarantines, &s.Degraded}
}

// Encode serializes the stats counters.
func (s *Stats) Encode() []byte {
	buf := make([]byte, 0, statsSize)
	for _, p := range s.fields() {
		buf = binary.BigEndian.AppendUint64(buf, *p)
	}
	return buf
}

// DecodeStats parses a TStats response payload.
func DecodeStats(b []byte) (Stats, error) {
	if len(b) != statsSize {
		return Stats{}, fmt.Errorf("wire: stats payload %d bytes, want %d", len(b), statsSize)
	}
	var s Stats
	for i, p := range s.fields() {
		*p = binary.BigEndian.Uint64(b[8*i:])
	}
	return s, nil
}
