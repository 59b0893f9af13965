package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: TOpen, Payload: []byte("lineage-a")},
		{Type: TPush, Lineage: 7, Ckpt: 3, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: TPull, Lineage: 1, Ckpt: 0},
		{Type: TStats, Status: StatusOK},
		{Type: TErr, Status: StatusErr, Payload: []byte("boom")},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Status != want.Status ||
			got.Lineage != want.Lineage || got.Ckpt != want.Ckpt ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame mismatch: got %+v want %+v", got, want)
		}
		if got.WireSize() != HeaderSize+int64(len(want.Payload)) {
			t.Fatalf("wire size %d", got.WireSize())
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", buf.Len())
	}
}

func TestFrameMaxPayloadGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: TPush, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 64); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized payload accepted: %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: TPull, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 3, HeaderSize, HeaderSize + 2} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut]), 0); err == nil {
			t.Fatalf("truncated frame (%d bytes) accepted", cut)
		}
	}
}

func TestHelloExchange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HelloSize {
		t.Fatalf("hello is %d bytes, want %d", buf.Len(), HelloSize)
	}
	if err := ReadHello(&buf); err != nil {
		t.Fatalf("hello round trip: %v", err)
	}
	if err := ReadHello(bytes.NewReader([]byte("notckpd"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic accepted: %v", err)
	}
	if err := ReadHello(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("short hello accepted")
	}
}

// pipeRW adapts separate read/write ends into an io.ReadWriter.
type pipeRW struct {
	io.Reader
	io.Writer
}

func TestHandshake(t *testing.T) {
	// The peer's hello is already in flight (as over a buffered TCP
	// socket); Handshake writes ours and validates theirs.
	var peer, ours bytes.Buffer
	if err := WriteHello(&peer); err != nil {
		t.Fatal(err)
	}
	if err := Handshake(pipeRW{&peer, &ours}); err != nil {
		t.Fatalf("same-version handshake: %v", err)
	}
	if err := ReadHello(&ours); err != nil {
		t.Fatalf("handshake wrote bad hello: %v", err)
	}
}

// TestHandshakeExactVersion: there is one protocol floor. A hello
// advertising any version but ours — older or newer — is refused with
// a *VersionError naming the peer's version, and the refusal is
// terminal.
func TestHandshakeExactVersion(t *testing.T) {
	for _, theirs := range []uint8{0, 3, 7, Version - 1, Version + 1, 255} {
		peer := bytes.NewBuffer([]byte{0x43, 0x4b, 0x50, 0x44, theirs, 0})
		var out bytes.Buffer
		err := Handshake(pipeRW{peer, &out})
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Peer != theirs {
			t.Fatalf("handshake with a v%d peer: %v, want a VersionError naming it", theirs, err)
		}
		if Transient(err) {
			t.Fatalf("version mismatch %v classified transient", err)
		}
	}
}

// TestFrameTypeBytes pins the type byte of every frame type. A type
// keeps its byte for as long as the protocol has it, and a retired byte
// is never handed out again: 9 and 10 were TSubscribe and TTail until
// v9, 11 was TResync until v8.
func TestFrameTypeBytes(t *testing.T) {
	retired := map[uint8]bool{9: true, 10: true, 11: true}
	for name, c := range map[string]struct{ got, want uint8 }{
		"TOpen":       {TOpen, 1},
		"TPush":       {TPush, 2},
		"TPull":       {TPull, 3},
		"TList":       {TList, 4},
		"TStats":      {TStats, 5},
		"TCompact":    {TCompact, 6},
		"TPolicy":     {TPolicy, 7},
		"TPushStream": {TPushStream, 8},
		"TDigest":     {TDigest, 12},
		"TErr":        {TErr, 0xFF},
	} {
		if c.got != c.want {
			t.Errorf("%s is type byte %d, want %d", name, c.got, c.want)
		}
		if retired[c.got] {
			t.Errorf("%s uses the retired type byte %d", name, c.got)
		}
	}
}

func TestListRoundTrip(t *testing.T) {
	infos := []LineageInfo{
		{Name: "alpha", Len: 4, Bytes: 123456},
		{Name: "a/b-c_d", Len: 0, Bytes: 0},
		{Name: "", Len: 1, Bytes: 1},
	}
	payload, err := EncodeList(infos)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeList(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(infos) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range infos {
		if got[i] != infos[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], infos[i])
		}
	}
	emptyPayload, err := EncodeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty, err := DecodeList(emptyPayload); err != nil || len(empty) != 0 {
		t.Fatalf("empty list round trip: %v %v", empty, err)
	}
	for _, bad := range [][]byte{{}, {0, 0, 0, 1}, append(append([]byte{}, payload...), 0)} {
		if _, err := DecodeList(bad); err == nil {
			t.Fatalf("corrupt list %v accepted", bad)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := Stats{Requests: 1, BytesIn: 2, BytesOut: 3, ActiveConns: 4, Conns: 5, Lineages: 6}
	got, err := DecodeStats(s.Encode())
	if err != nil || got != s {
		t.Fatalf("stats round trip: %+v %v", got, err)
	}
	if _, err := DecodeStats([]byte{1, 2, 3}); err == nil {
		t.Fatal("short stats accepted")
	}
}

func TestRemoteError(t *testing.T) {
	f := &Frame{Type: TPush, Status: StatusErr, Payload: []byte("no such lineage")}
	err := f.Err()
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "no such lineage" {
		t.Fatalf("err = %v", err)
	}
	ok := &Frame{Type: TPush, Status: StatusOK}
	if ok.Err() != nil {
		t.Fatal("ok frame reported error")
	}
}

func TestOpenInfoRoundTrip(t *testing.T) {
	for _, base := range []uint32{0, 1, 56, 1 << 30} {
		got, err := DecodeOpenInfo(EncodeOpenInfo(base))
		if err != nil || got != base {
			t.Fatalf("open info %d: got %d, %v", base, got, err)
		}
	}
	// The payload has one layout; the empty response of a v1-era
	// server is refused like any other wrong size.
	for _, bad := range [][]byte{nil, {1}, {1, 2, 3}, {1, 2, 3, 4, 5}} {
		if _, err := DecodeOpenInfo(bad); err == nil {
			t.Fatalf("open info of %d bytes accepted", len(bad))
		}
	}
}

func TestCompactResultRoundTrip(t *testing.T) {
	cases := []CompactResult{
		{},
		{OldBase: 0, NewBase: 56, Pruned: 56, Rewritten: 7, FreedBytes: 123456},
		{OldBase: 3, NewBase: 3}, // no-op compaction
		{OldBase: 1, NewBase: 2, FreedBytes: -400},
	}
	for _, r := range cases {
		got, err := DecodeCompactResult(r.Encode())
		if err != nil || got != r {
			t.Fatalf("compact result %+v: got %+v, %v", r, got, err)
		}
	}
	if _, err := DecodeCompactResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("short compact result accepted")
	}
	// A result that moves the baseline backwards is corrupt by
	// definition: the manifest commit is forward-only.
	backwards := (&CompactResult{OldBase: 9, NewBase: 2}).Encode()
	if _, err := DecodeCompactResult(backwards); err == nil {
		t.Fatal("backwards baseline accepted")
	}
}

func TestListBaseValidation(t *testing.T) {
	infos := []LineageInfo{{Name: "compacted", Len: 64, Base: 56, Bytes: 999}}
	payload, err := EncodeList(infos)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeList(payload)
	if err != nil || len(got) != 1 || got[0] != infos[0] {
		t.Fatalf("list with base: got %+v, %v", got, err)
	}
	// Base beyond Len means the entry describes an empty negative span.
	bad, err := EncodeList([]LineageInfo{{Name: "x", Len: 3, Base: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeList(bad); err == nil {
		t.Fatal("baseline beyond length accepted")
	}
}

func TestStatsCompactionCounters(t *testing.T) {
	s := Stats{Requests: 1, BytesIn: 2, BytesOut: 3, ActiveConns: 4, Conns: 5,
		Lineages: 6, Compactions: 7, CompactedDiffs: 8, ReclaimedBytes: 9}
	got, err := DecodeStats(s.Encode())
	if err != nil || got != s {
		t.Fatalf("stats round trip: %+v %v", got, err)
	}
}

func TestStreamAckRoundTrip(t *testing.T) {
	cases := []StreamAck{
		{},
		{Ckpt: 7, NewLen: 8},
		{Ckpt: 3, RetryAfterMs: 250, Msg: "server busy"},
		{Ckpt: 1<<32 - 1, NewLen: 1<<32 - 1, Msg: "x"},
	}
	buf := make([]byte, 0, 64)
	for _, a := range cases {
		buf = buf[:0]
		var err error
		buf, err = AppendStreamAck(buf, &a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeStreamAck(buf)
		if err != nil || got != a {
			t.Fatalf("stream ack %+v: got %+v, %v", a, got, err)
		}
	}
	// An over-long message must fail, not truncate.
	long := StreamAck{Msg: string(make([]byte, 1<<16))}
	if _, err := AppendStreamAck(nil, &long); err == nil {
		t.Fatal("64 KiB ack message accepted")
	}
}

func TestStreamAckErr(t *testing.T) {
	ok := StreamAck{Ckpt: 3, NewLen: 4}
	if err := ok.Err(StatusOK); err != nil {
		t.Fatalf("ok ack reported error: %v", err)
	}
	busy := StreamAck{Ckpt: 3, RetryAfterMs: 120}
	err := busy.Err(StatusBusy)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("busy ack not matched by ErrBusy: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.RetryAfter != 120*time.Millisecond {
		t.Fatalf("busy ack hint lost: %#v", err)
	}
	unk := StreamAck{Ckpt: 9, Msg: "stale handle"}
	if !errors.Is(unk.Err(StatusUnknownHandle), ErrUnknownHandle) {
		t.Fatal("unknown-handle ack not matched by ErrUnknownHandle")
	}
	plain := StreamAck{Ckpt: 1, Msg: "boom"}
	perr := plain.Err(StatusErr)
	if errors.Is(perr, ErrBusy) || errors.Is(perr, ErrUnknownHandle) || errors.Is(perr, ErrUnsupported) {
		t.Fatalf("plain error matched a sentinel: %v", perr)
	}
}

func TestStreamFrameErrorUnwrap(t *testing.T) {
	inner := &RemoteError{Msg: "busy", Busy: true, RetryAfter: time.Second}
	err := error(&StreamFrameError{Ckpt: 42, Err: inner})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("StreamFrameError hides the busy sentinel: %v", err)
	}
	var sfe *StreamFrameError
	if !errors.As(err, &sfe) || sfe.Ckpt != 42 {
		t.Fatalf("err = %#v", err)
	}
	// Transient classification must see through the wrapper too.
	if !Transient(err) {
		t.Fatal("wrapped busy rejection classified terminal")
	}
	if Transient(&StreamFrameError{Ckpt: 1, Err: &RemoteError{Msg: "no such ckpt"}}) {
		t.Fatal("wrapped terminal rejection classified transient")
	}
}

func TestUnknownHandleError(t *testing.T) {
	f := &Frame{Type: TPush, Status: StatusUnknownHandle, Payload: []byte("stale epoch")}
	err := f.Err()
	if !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("unknown-handle status not matched: %v", err)
	}
	// Not executed, but the fix is re-open + replay, not blind retry of
	// the same frame — classification stays terminal so the caller's
	// handle-refresh path runs instead of the redial loop.
	if Transient(err) {
		t.Fatal("unknown-handle classified transient")
	}
}

// TestSpanMovedError: a StatusSpanMoved frame is a typed remote error.
// Like an unknown handle it is not transport-transient — the fix is to
// re-open and pull what the lineage holds now, which the client's
// settle rule (not the redial loop) arranges.
func TestSpanMovedError(t *testing.T) {
	f := &Frame{Type: TPull, Status: StatusSpanMoved, Ckpt: 7, Payload: []byte("folded")}
	err := f.Err()
	var re *RemoteError
	if !errors.Is(err, ErrSpanMoved) || !errors.As(err, &re) || re.Msg != "folded" {
		t.Fatalf("span-moved status not matched: %v", err)
	}
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrUnknownHandle) || errors.Is(err, ErrUnsupported) {
		t.Fatalf("span-moved error matches another sentinel: %v", err)
	}
	if errors.Is((&Frame{Type: TPull, Status: StatusErr}).Err(), ErrSpanMoved) {
		t.Fatal("a plain remote error matches ErrSpanMoved")
	}
	if Transient(err) {
		t.Fatal("span-moved classified transient")
	}
}

// TestPullSpanPayload: a bounded TPull request payload is exactly four
// bytes, and its end may be anything but PullFollow.
func TestPullSpanPayload(t *testing.T) {
	b := AppendPull(nil, Pull{From: 3, To: 0xDEADBEEF})
	if p, err := DecodePull(3, b); err != nil || p != (Pull{From: 3, To: 0xDEADBEEF}) {
		t.Fatalf("round trip: %+v %v", p, err)
	}
	for _, bad := range [][]byte{nil, b[:3], append(b, 0), AppendPull(nil, Pull{To: PullFollow})[:4]} {
		if _, err := DecodePull(0, bad); err == nil {
			t.Fatalf("payload %x decoded", bad)
		}
	}
}

// TestSubscribeCursorRoundTrip: a follow pull's payload carries the
// subscriber's cursor, and the cursor survives the round trip.
func TestSubscribeCursorRoundTrip(t *testing.T) {
	for _, p := range []Pull{
		{To: PullFollow},
		{From: 5, To: PullFollow, CRC: 0xdeadbeef},
		{From: 7, To: PullFollow, Base: 7},
		{From: 123, To: PullFollow, Base: 7, CRC: 0xffffffff},
	} {
		enc := AppendPull([]byte("prefix"), p)[6:]
		if len(enc) != 12 {
			t.Fatalf("AppendPull(%+v) = %d bytes, want 12", p, len(enc))
		}
		got, err := DecodePull(p.From, enc)
		if err != nil {
			t.Fatalf("DecodePull(%+v): %v", p, err)
		}
		if got != p || !got.Follow() {
			t.Fatalf("cursor round trip: got %+v, want %+v", got, p)
		}
	}
}

// TestSubscribeDecodeTruncated walks every prefix of a well-formed
// follow pull payload (plus one trailing byte) through its decoder:
// only the exact length may decode.
func TestSubscribeDecodeTruncated(t *testing.T) {
	full := AppendPull(nil, Pull{From: 9, To: PullFollow, Base: 2, CRC: 0xabad1dea})
	t.Run("subscribe", func(t *testing.T) {
		if _, err := DecodePull(9, full); err != nil {
			t.Fatalf("full payload rejected: %v", err)
		}
		for n := 0; n < len(full); n++ {
			if _, err := DecodePull(9, full[:n]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
			}
		}
		if _, err := DecodePull(9, append(bytes.Clone(full), 0)); err == nil {
			t.Fatalf("payload with trailing byte decoded without error")
		}
	})
}

// TestSubscribeDecodeRejectsInvariantViolations: a follow pull from
// below the baseline its cursor names does not decode.
func TestSubscribeDecodeRejectsInvariantViolations(t *testing.T) {
	if _, err := DecodePull(8, AppendPull(nil, Pull{From: 8, To: PullFollow, Base: 9})); err == nil {
		t.Fatal("cursor with next < base decoded without error")
	}
}

func TestChecksumAdd(t *testing.T) {
	whole := []byte("the quick brown fox jumps over the lazy dog")
	want := Checksum(whole)
	for _, cut := range []int{0, 1, 7, len(whole) / 2, len(whole)} {
		sum := ChecksumAdd(0, whole[:cut])
		sum = ChecksumAdd(sum, whole[cut:])
		if sum != want {
			t.Fatalf("split at %d: %08x != %08x", cut, sum, want)
		}
	}
	if ChecksumAdd(0, whole) != want {
		t.Fatal("single-shot ChecksumAdd differs from Checksum")
	}
}

func TestAppendFrameHeaderMatchesWriteFrame(t *testing.T) {
	f := &Frame{Type: TPushStream, Status: StatusOK, Lineage: 77, Ckpt: 12345, Payload: []byte("payload!")}
	var want bytes.Buffer
	if err := WriteFrame(&want, f); err != nil {
		t.Fatal(err)
	}
	hdr, err := AppendFrameHeader(nil, f.Type, f.Status, f.Lineage, f.Ckpt, len(f.Payload))
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte{}, hdr...), f.Payload...)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("header bytes diverge:\n got  %x\n want %x", got, want.Bytes())
	}
	if _, err := AppendFrameHeader(nil, TPush, StatusOK, 0, 0, -1); err == nil {
		t.Fatal("negative payload length accepted")
	}
}

func TestWriteFrameVec(t *testing.T) {
	// Assemble one frame from three scattered segments and confirm the
	// reader can't tell it from a contiguous WriteFrame.
	payload := []byte("hello, scattered world")
	hdr, err := AppendFrameHeader(nil, TPushStream, StatusOK, 9, 4, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	vec := net.Buffers{hdr, payload[:5], payload[5:]}
	var buf bytes.Buffer
	if err := WriteFrameVec(&buf, &vec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TPushStream || got.Lineage != 9 || got.Ckpt != 4 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("vec frame mismatch: %+v", got)
	}
}

func TestReadFrameIntoReusesScratch(t *testing.T) {
	var buf bytes.Buffer
	frames := []*Frame{
		{Type: TPush, Lineage: 1, Ckpt: 0, Payload: bytes.Repeat([]byte{0xCD}, 2048)},
		{Type: TPush, Lineage: 1, Ckpt: 1, Payload: bytes.Repeat([]byte{0xEF}, 1024)},
		{Type: TPull, Lineage: 1, Ckpt: 2}, // empty payload
		{Type: TPush, Lineage: 1, Ckpt: 3, Payload: bytes.Repeat([]byte{0x12}, 2048)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	var f Frame
	var scratch []byte
	for i, want := range frames {
		if err := ReadFrameInto(&buf, 0, &f, &scratch); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != want.Type || f.Ckpt != want.Ckpt || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v", i, f)
		}
		if i > 0 && len(want.Payload) > 0 && cap(scratch) < 2048 {
			t.Fatalf("scratch shrank to %d", cap(scratch))
		}
	}
	// Steady state: an already-grown scratch absorbs same-size frames
	// without allocating.
	var pre bytes.Buffer
	for i := 0; i < 16; i++ {
		if err := WriteFrame(&pre, frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(8, func() {
		if err := ReadFrameInto(&pre, 0, &f, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadFrameInto allocates %.1f/op", allocs)
	}
}

// payloadOf returns n bytes that differ with their position and with
// seed, so a buffer holding the wrong stretch of a payload shows.
func payloadOf(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed + i + i>>8)
	}
	return p
}

// checkHandBack checks what one ReadFrameSpare call handed back. The
// call started from the scratch before, left the scratch after, and
// was sent arrived, the first bytes of a payload declared total bytes
// long (0 when its header did not arrive or was refused). First come
// the buffers it replaced: before, when too small for the header or
// for the payload's first stretch, then the header buffer it made in
// its place, when that was too small too. Then, when the payload
// outgrew its first buffer, the segments it was read into: in order,
// holding its first bytes, each no larger than the bytes before it,
// and none read into once total/c had arrived; a frame that arrived
// whole had at least total/c in them. No buffer comes back twice, is
// the scratch, or shares a byte with it.
func checkHandBack(before, after []byte, spare [][]byte, arrived []byte, total int) error {
	const c = growthFactor
	replaced, have := 0, cap(before)
	if have < HeaderSize {
		if have > 0 {
			replaced++
		}
		have = HeaderSize
	}
	if total > 0 && have < min(total, initialPayloadCap) {
		replaced, have = replaced+1, min(total, initialPayloadCap)
	}
	if len(spare) < replaced {
		return fmt.Errorf("%d buffers handed back, want the %d replaced first", len(spare), replaced)
	}
	if replaced > 0 && cap(before) > 0 && &spare[0][:1][0] != &before[:1][0] {
		return errors.New("the first buffer handed back is not the scratch the read started from")
	}
	segs := spare[replaced:]
	if total <= have && len(segs) > 0 {
		return fmt.Errorf("a %d-byte payload that fits a %d-byte buffer handed back %d segments", total, have, len(segs))
	}
	need := (total + c - 1) / c
	filled := 0
	for i, s := range segs {
		switch {
		case i == 0 && cap(s) != have:
			return fmt.Errorf("the first segment holds %d bytes, not the %d of the payload's first buffer", cap(s), have)
		case i > 0 && cap(s) > filled:
			return fmt.Errorf("segment %d holds %d bytes, more than the %d before it", i, cap(s), filled)
		case i > 0 && filled >= need:
			return fmt.Errorf("segment %d was read into after %d of %d bytes had arrived", i, filled, total)
		case filled+cap(s) > len(arrived) || !bytes.Equal(s[:cap(s)], arrived[filled:filled+cap(s)]):
			return fmt.Errorf("segment %d does not hold payload bytes [%d, %d)", i, filled, filled+cap(s))
		}
		filled += cap(s)
	}
	if len(arrived) == total && total > have && c*filled < total {
		return fmt.Errorf("a whole %d-byte payload left its segments at %d bytes, short of total/c", total, filled)
	}
	seen := map[*byte]bool{}
	if cap(after) > 0 {
		seen[&after[:1][0]] = true
	}
	for i, s := range spare {
		p := &s[:1][0]
		if seen[p] {
			return fmt.Errorf("buffer %d handed back is handed back twice or is the scratch", i)
		}
		seen[p] = true
	}
	kept := append([]byte(nil), after[:cap(after)]...)
	for _, s := range spare {
		s = s[:cap(s)]
		for i := range s {
			s[i] ^= 0xff
		}
	}
	if !bytes.Equal(kept, after[:cap(after)]) {
		return errors.New("a buffer handed back shares bytes with the scratch")
	}
	return nil
}

// TestReadFrameSpareHandsBackOutgrown: every buffer the scratch
// outgrows — the one it held before the frame and each segment a
// payload that outgrew it was read into — is handed back once, in
// order, never aliases the payload and is never read into again; a
// frame that fits hands back nothing.
func TestReadFrameSpareHandsBackOutgrown(t *testing.T) {
	var buf bytes.Buffer
	sizes := []int{0, 10, 100 << 10, 50, 1<<20 + 300, 1 << 20, 3<<20 + 7}
	for i, n := range sizes {
		if err := WriteFrame(&buf, &Frame{Type: TPull, Ckpt: uint32(i), Payload: payloadOf(i, n)}); err != nil {
			t.Fatal(err)
		}
	}
	var f Frame
	var scratch []byte
	var spare [][]byte
	seen := map[*byte]int{} // every buffer handed back, by frame
	for i, n := range sizes {
		before := scratch
		spare = spare[:0]
		if err := ReadFrameSpare(&buf, 0, &f, &scratch, &spare); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := payloadOf(i, n)
		if f.Ckpt != uint32(i) || !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d read back wrong", i)
		}
		if err := checkHandBack(before, scratch, spare, want, n); err != nil {
			t.Fatalf("frame %d of %d bytes: %v", i, n, err)
		}
		for _, b := range spare {
			p := &b[:1][0]
			if at, dup := seen[p]; dup {
				t.Fatalf("frame %d handed back a buffer already handed back at frame %d", i, at)
			}
			seen[p] = i
		}
		if at, dup := seen[&scratch[:1][0]]; dup {
			t.Fatalf("frame %d was read into a buffer handed back at frame %d", i, at)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("%d buffers were outgrown, want the growth of two frames", len(seen))
	}
}

func TestUnsupportedError(t *testing.T) {
	f := &Frame{Type: 0x77, Status: StatusUnsupported, Payload: []byte("unknown request type 0x77")}
	err := f.Err()
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unsupported status not matched by ErrUnsupported: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || !re.Unsupported {
		t.Fatalf("err = %#v", err)
	}
	// A plain StatusErr must NOT match the sentinel.
	plain := (&Frame{Type: TPush, Status: StatusErr, Payload: []byte("boom")}).Err()
	if errors.Is(plain, ErrUnsupported) {
		t.Fatal("generic error matched ErrUnsupported")
	}
}
