package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

func quiet(cfg Config) Config {
	cfg.Logf = func(string, ...any) {}
	return cfg
}

// startServer runs a server on an ephemeral port and returns its
// address plus a shutdown func that waits for Serve to return.
func startServer(t testing.TB, cfg Config) (*Server, string, func()) {
	t.Helper()
	srv, err := New(quiet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	stop := func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("Close returned %v", err)
		}
	}
	return srv, ln.Addr().String(), stop
}

// testConn dials and handshakes a raw protocol connection.
func testConn(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.Handshake(conn); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

func call(t testing.TB, conn net.Conn, req *wire.Frame) *wire.Frame {
	t.Helper()
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// pullOne builds the TPull request for the one-checkpoint span
// [ck, ck+1), which is answered by exactly one frame.
func pullOne(h, ck uint32) *wire.Frame {
	return &wire.Frame{Type: wire.TPull, Lineage: h, Ckpt: ck, Payload: wire.AppendPull(nil, wire.Pull{From: ck, To: ck + 1})}
}

func encodedDiff(t *testing.T, ck int, tag byte) []byte {
	t.Helper()
	d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(ck),
		DataLen: 64, ChunkSize: 16, Data: bytes.Repeat([]byte{tag}, 64)}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerOpenPushPull(t *testing.T) {
	root := t.TempDir()
	_, addr, stop := startServer(t, Config{Root: root})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("lin-a")})
	if open.Status != wire.StatusOK || open.Ckpt != 0 {
		t.Fatalf("open: %+v", open)
	}
	h := open.Lineage

	enc := encodedDiff(t, 0, 0xAA)
	push := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: 0, Payload: wire.EncodePush(enc)})
	if push.Status != wire.StatusOK || push.Ckpt != 1 {
		t.Fatalf("push: %+v (%s)", push, push.Payload)
	}

	pull := call(t, conn, pullOne(h, 0))
	if pull.Status != wire.StatusOK || !bytes.Equal(pull.Payload, wire.EncodePush(enc)) {
		t.Fatalf("pull returned %d bytes, want %d", len(pull.Payload), len(enc))
	}

	// The lineage landed as a FileStore directory under root: one
	// segment file.
	entries, err := os.ReadDir(filepath.Join(root, "lin-a"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("lineage directory: %v %v", entries, err)
	}

	list := call(t, conn, &wire.Frame{Type: wire.TList})
	infos, err := wire.DecodeList(list.Payload)
	if err != nil || len(infos) != 1 || infos[0].Name != "lin-a" || infos[0].Len != 1 {
		t.Fatalf("list: %+v err %v", infos, err)
	}
	// The listing reports the lineage's on-disk bytes (the record of a
	// block-mapped container), not the canonical encoding's size.
	fi, err := entries[0].Info()
	if err != nil {
		t.Fatalf("stat lineage segment: %v", err)
	}
	if infos[0].Bytes != uint64(fi.Size()) {
		t.Fatalf("list bytes %d, want on-disk %d", infos[0].Bytes, fi.Size())
	}

}

// TestServerReadOnlyOpenCreatesNothing: opening a name nobody ever
// pushed to — a typo — and reading from it must not leave a lineage
// directory behind; the root still holds the block store alone.
func TestServerReadOnlyOpenCreatesNothing(t *testing.T) {
	root := t.TempDir()
	_, addr, stop := startServer(t, Config{Root: root})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("typo")})
	if open.Status != wire.StatusOK || open.Ckpt != 0 {
		t.Fatalf("open of an unknown name: %+v", open)
	}
	if pull := call(t, conn, pullOne(open.Lineage, 0)); pull.Status != wire.StatusErr {
		t.Fatalf("pull from an empty lineage: %+v", pull)
	}
	digest := call(t, conn, &wire.Frame{Type: wire.TDigest, Lineage: open.Lineage,
		Payload: wire.EncodeDigestReq(wire.DigestReq{})})
	if digest.Status != wire.StatusOK {
		t.Fatalf("digest of an empty lineage: %+v", digest)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != blockstore.DirName {
		t.Fatalf("read-only requests left %v under the root, want %s alone", entries, blockstore.DirName)
	}
}

// TestServerRefusesOldLayout: a lineage directory of the replaced
// file-per-checkpoint layout fails its OPEN typed, untouched, while
// the server keeps serving other lineages; a root holding one at
// startup is refused the same way.
func TestServerRefusesOldLayout(t *testing.T) {
	root := t.TempDir()
	srv, addr, stop := startServer(t, Config{Root: root})
	old := filepath.Join(root, "old", "ckpt-000000.gckp")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("old store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := srv.open("old"); !errors.Is(err, checkpoint.ErrOldLayout) {
		t.Fatalf("open of an old-layout lineage: %v, want ErrOldLayout", err)
	}
	conn := testConn(t, addr)
	if resp := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("old")}); resp.Status != wire.StatusErr {
		t.Fatalf("OPEN of an old-layout lineage: %+v", resp)
	}
	if resp := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("fresh")}); resp.Status != wire.StatusOK {
		t.Fatalf("OPEN beside the refused lineage: %+v", resp)
	}
	conn.Close()
	stop()
	if _, err := New(quiet(Config{Root: root})); !errors.Is(err, checkpoint.ErrOldLayout) {
		t.Fatalf("server start over an old-layout lineage: %v, want ErrOldLayout", err)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "old store" {
		t.Fatalf("refused lineage was modified: %q %v", b, err)
	}
	if entries, _ := os.ReadDir(filepath.Dir(old)); len(entries) != 1 {
		t.Fatalf("refused lineage directory now holds %v", entries)
	}
}

// TestServerRefusesOldBlockLayout: a root whose _blocks directory is of
// the replaced file-per-block layout is refused at startup with the
// block store's own typed error, and nothing in it is touched.
func TestServerRefusesOldBlockLayout(t *testing.T) {
	root := t.TempDir()
	old := filepath.Join(root, blockstore.DirName, "data", "ab")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := New(quiet(Config{Root: root})); !errors.Is(err, blockstore.ErrOldLayout) {
		t.Fatalf("server start over an old-layout block store: %v, want blockstore.ErrOldLayout", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(root, blockstore.DirName)); len(entries) != 1 {
		t.Fatalf("refused block store now holds %v", entries)
	}
}

func TestServerRequestErrors(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	cases := []*wire.Frame{
		{Type: wire.TOpen, Payload: []byte("../escape")}, // bad name
		{Type: wire.TOpen, Payload: []byte("a/b")},       // path separator
		{Type: wire.TOpen},                               // empty name
	}
	for _, req := range cases {
		resp := call(t, conn, req)
		if resp.Status != wire.StatusErr {
			t.Fatalf("request %+v succeeded: %+v", req, resp)
		}
	}
	// A stale/unknown handle gets the dedicated v4 status on this
	// (v4-negotiated) connection, and round-trips through Err() as
	// wire.ErrUnknownHandle so the client's re-open path triggers.
	for _, req := range []*wire.Frame{
		{Type: wire.TPush, Lineage: 99, Payload: []byte("x")},
		{Type: wire.TPull, Lineage: 99},
	} {
		resp := call(t, conn, req)
		if resp.Status != wire.StatusUnknownHandle {
			t.Fatalf("unknown handle %+v: status %d, want StatusUnknownHandle", req, resp.Status)
		}
		if err := resp.Err(); !errors.Is(err, wire.ErrUnknownHandle) {
			t.Fatalf("unknown handle error %v does not match wire.ErrUnknownHandle", err)
		}
	}
	// An unknown opcode gets the dedicated unsupported status (not a
	// generic error), so clients can distinguish "old server" from "bad
	// request", and the error frame must round-trip through Err() as
	// wire.ErrUnsupported.
	resp0 := call(t, conn, &wire.Frame{Type: 0x77})
	if resp0.Status != wire.StatusUnsupported {
		t.Fatalf("unknown opcode: status = %d, want StatusUnsupported; frame %+v", resp0.Status, resp0)
	}
	if err := resp0.Err(); !errors.Is(err, wire.ErrUnsupported) {
		t.Fatalf("unknown opcode error %v does not match wire.ErrUnsupported", err)
	}

	// A malformed diff must be rejected before touching the store.
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("lin")})
	resp := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 0, Payload: []byte("garbage")})
	if resp.Status != wire.StatusErr {
		t.Fatal("garbage diff accepted")
	}
	// Frame ckpt id and diff id must agree.
	resp = call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 1, Payload: wire.EncodePush(encodedDiff(t, 0, 1))})
	if resp.Status != wire.StatusErr {
		t.Fatal("mismatched ckpt id accepted")
	}
	// Non-contiguous push.
	resp = call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 5, Payload: wire.EncodePush(encodedDiff(t, 5, 1))})
	if resp.Status != wire.StatusErr {
		t.Fatal("non-contiguous push accepted")
	}
	// The connection survives request errors.
	if st := call(t, conn, &wire.Frame{Type: wire.TStats}); st.Status != wire.StatusOK {
		t.Fatal("connection broken after request errors")
	}
}

// TestServerStreamPush drives the v4 pipelined push over raw frames:
// a window of TPushStream frames is written without reading a single
// ack, then all acks are drained and matched by checkpoint id. A bad
// frame in the middle must produce an error ack without tearing the
// stream — the frames behind it still land.
func TestServerStreamPush(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("stream")})
	if open.Status != wire.StatusOK {
		t.Fatalf("open: %+v", open)
	}
	h := open.Lineage

	const n = 16
	const badCkpt = 7
	for i := 0; i < n; i++ {
		payload := wire.EncodePush(encodedDiff(t, i, byte(i)))
		if i == badCkpt {
			// Frame ckpt disagrees with the encoded diff id: a
			// per-frame error, not a stream teardown.
			payload = wire.EncodePush(encodedDiff(t, 99, byte(i)))
		}
		f := &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(i), Payload: payload}
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
	}
	acked := make(map[uint32]wire.StreamAck)
	statuses := make(map[uint32]uint8)
	for i := 0; i < n; i++ {
		resp, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if resp.Type != wire.TPushStream {
			t.Fatalf("ack %d has type %d", i, resp.Type)
		}
		ack, err := wire.DecodeStreamAck(resp.Payload)
		if err != nil {
			t.Fatalf("ack %d payload: %v", i, err)
		}
		if ack.Ckpt != resp.Ckpt {
			t.Fatalf("ack payload ckpt %d != header ckpt %d", ack.Ckpt, resp.Ckpt)
		}
		if _, dup := acked[ack.Ckpt]; dup {
			t.Fatalf("checkpoint %d acked twice", ack.Ckpt)
		}
		acked[ack.Ckpt] = ack
		statuses[ack.Ckpt] = resp.Status
	}
	for i := uint32(0); i < n; i++ {
		ack, ok := acked[i]
		if !ok {
			t.Fatalf("checkpoint %d never acked", i)
		}
		if i < badCkpt {
			if statuses[i] != wire.StatusOK {
				t.Fatalf("checkpoint %d ack status %d: %s", i, statuses[i], ack.Msg)
			}
			continue
		}
		// The bad frame fails on its own terms; the frames already in
		// flight behind it fail the contiguity check (the lineage
		// stopped at the gap). Every failure is a typed per-frame ack,
		// never a torn connection.
		if statuses[i] == wire.StatusOK {
			t.Fatalf("checkpoint %d acked OK across the gap: %+v", i, ack)
		}
		if ack.Msg == "" {
			t.Fatalf("error ack %d carries no message", i)
		}
		var re *wire.RemoteError
		if !errors.As(ack.Err(statuses[i]), &re) {
			t.Fatalf("error ack %d does not decode to a RemoteError: %v", i, ack.Err(statuses[i]))
		}
	}
	if got := srv.StreamPushes(); got != n {
		t.Fatalf("StreamPushes() = %d, want %d", got, n)
	}

	// The stream stayed usable: the client resumes from the gap over
	// the same connection and the suffix lands.
	for i := badCkpt; i < n; i++ {
		tag := byte(i)
		if i == badCkpt {
			tag = 0xEE
		}
		repush := call(t, conn, &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(i),
			Payload: wire.EncodePush(encodedDiff(t, i, tag))})
		if repush.Status != wire.StatusOK {
			t.Fatalf("resume push %d after error ack: %+v (%s)", i, repush, repush.Payload)
		}
		ack, err := wire.DecodeStreamAck(repush.Payload)
		if err != nil || ack.Ckpt != uint32(i) || ack.NewLen != uint32(i+1) {
			t.Fatalf("resume ack %+v err %v", ack, err)
		}
	}

	// Every slot restorable and byte-exact.
	for i := 0; i < n; i++ {
		pull := call(t, conn, pullOne(h, uint32(i)))
		if pull.Status != wire.StatusOK {
			t.Fatalf("pull %d: %+v", i, pull)
		}
		tag := byte(i)
		if i == badCkpt {
			tag = 0xEE
		}
		want := encodedDiff(t, i, tag)
		if !bytes.Equal(pull.Payload, wire.EncodePush(want)) {
			t.Fatalf("pull %d diverges from pushed bytes", i)
		}
	}
}

// TestServerStreamUnknownHandleAck: a stream frame naming a stale
// handle is answered with a StatusUnknownHandle ack, still without
// tearing the stream.
func TestServerStreamUnknownHandleAck(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	resp := call(t, conn, &wire.Frame{Type: wire.TPushStream, Lineage: 42, Ckpt: 0,
		Payload: wire.EncodePush(encodedDiff(t, 0, 1))})
	if resp.Status != wire.StatusUnknownHandle {
		t.Fatalf("stale-handle stream push: status %d, want StatusUnknownHandle", resp.Status)
	}
	ack, err := wire.DecodeStreamAck(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ack.Err(resp.Status), wire.ErrUnknownHandle) {
		t.Fatalf("ack error %v does not match ErrUnknownHandle", ack.Err(resp.Status))
	}
	// The connection is still alive.
	if st := call(t, conn, &wire.Frame{Type: wire.TStats}); st.Status != wire.StatusOK {
		t.Fatalf("connection dead after unknown-handle ack: %+v", st)
	}
}

func TestServerReopensLineages(t *testing.T) {
	root := t.TempDir()
	_, addr, stop := startServer(t, Config{Root: root})
	conn := testConn(t, addr)
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("persisted")})
	call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 0, Payload: wire.EncodePush(encodedDiff(t, 0, 3))})
	conn.Close()
	stop()

	// A fresh server over the same root sees the lineage and its diff.
	_, addr2, stop2 := startServer(t, Config{Root: root})
	defer stop2()
	conn2 := testConn(t, addr2)
	defer conn2.Close()
	open2 := call(t, conn2, &wire.Frame{Type: wire.TOpen, Payload: []byte("persisted")})
	if open2.Status != wire.StatusOK || open2.Ckpt != 1 {
		t.Fatalf("reopened lineage: %+v", open2)
	}
}

func TestServerConnectionLimit(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir(), MaxConns: 2})
	defer stop()

	c1 := testConn(t, addr)
	defer c1.Close()
	c2 := testConn(t, addr)
	defer c2.Close()
	// Ensure both are fully admitted before over-subscribing.
	call(t, c1, &wire.Frame{Type: wire.TStats})
	call(t, c2, &wire.Frame{Type: wire.TStats})

	// The third connection is greeted, then shed with StatusBusy and a
	// retry-after hint.
	c3, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.Handshake(c3); err != nil {
		t.Fatalf("over-limit handshake failed: %v", err)
	}
	f, err := wire.ReadFrame(c3, 0)
	if err != nil {
		t.Fatalf("over-limit conn: %v", err)
	}
	if f.Type != wire.TErr || f.Status != wire.StatusBusy {
		t.Fatalf("over-limit conn got %+v", f)
	}
	var re *wire.RemoteError
	if err := f.Err(); !errors.As(err, &re) || !re.Busy || re.RetryAfter <= 0 {
		t.Fatalf("over-limit error %v is not a busy error with a hint", err)
	}

	// Releasing a slot admits new connections again.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c4.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.Handshake(c4); err == nil {
				if err := wire.WriteFrame(c4, &wire.Frame{Type: wire.TStats}); err == nil {
					if resp, err := wire.ReadFrame(c4, 0); err == nil && resp.Status == wire.StatusOK {
						c4.Close()
						break
					}
				}
			}
			c4.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never released")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir(), DrainTimeout: time.Second})
	conn := testConn(t, addr)
	defer conn.Close()
	call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("x")})
	stop() // cancels ctx; Serve must return without error

	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
	st := srv.Stats()
	if st.Requests == 0 || st.Conns == 0 {
		t.Fatalf("counters empty after traffic: %+v", st)
	}
}

func TestServerStatsCounters(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("s")})
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("s")})
	enc := encodedDiff(t, 0, 9)
	call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 0, Payload: wire.EncodePush(enc)})
	resp := call(t, conn, &wire.Frame{Type: wire.TStats})
	st, err := wire.DecodeStats(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 4 {
		t.Fatalf("requests %d, want 4", st.Requests)
	}
	if st.ActiveConns != 1 || st.Conns != 1 || st.Lineages != 1 {
		t.Fatalf("conn/lineage counters: %+v", st)
	}
	// Bytes in: hello + 4 request frames (two opens carry "s", push
	// carries the diff plus its CRC32C prefix).
	wantIn := uint64(wire.HelloSize + 4*wire.HeaderSize + 1 + 1 + wire.PushChecksumSize + len(enc))
	if st.BytesIn != wantIn {
		t.Fatalf("bytesIn %d, want %d", st.BytesIn, wantIn)
	}
	if st.BytesOut == 0 {
		t.Fatal("bytesOut not counted")
	}
	if got := srv.Stats(); got.Requests < st.Requests {
		t.Fatalf("server-side stats regressed: %+v", got)
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir(), MaxPayload: 128})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()
	// A frame over the server's payload limit tears the connection
	// down (the server cannot trust the stream afterwards).
	err := wire.WriteFrame(conn, &wire.Frame{Type: wire.TOpen, Payload: make([]byte, 4096)})
	if err != nil {
		t.Skipf("write failed early: %v", err)
	}
	if _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Fatal("oversized frame answered")
	}
}

// TestNewRefusesPayloadNoReaderAccepts: every reader of a served diff
// reads with wire.DefaultMaxPayload, so a server that accepted more
// would durably ack diffs nothing can pull back.
func TestNewRefusesPayloadNoReaderAccepts(t *testing.T) {
	root := t.TempDir()
	if srv, err := New(Config{Root: root, MaxPayload: wire.DefaultMaxPayload + 1}); err == nil {
		srv.Close()
		t.Fatal("a MaxPayload above what clients and followers read was accepted")
	}
	srv, err := New(Config{Root: root, MaxPayload: wire.DefaultMaxPayload})
	if err != nil {
		t.Fatalf("the readers' own limit was refused (or the refusal held the root): %v", err)
	}
	srv.Close()
}

func TestServerBadHandshake(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a non-protocol client")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty root accepted")
	}
}

// TestServerCompactAndPolicy drives the v2 lifecycle ops over raw
// frames: policy get/set, explicit-target and policy-driven
// compaction, post-compaction serving bounds, and stats accounting.
func TestServerCompactAndPolicy(t *testing.T) {
	root := t.TempDir()
	_, addr, stop := startServer(t, Config{Root: root})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("lin")})
	if open.Status != wire.StatusOK {
		t.Fatalf("open: %+v", open)
	}
	h := open.Lineage
	for k := 0; k < 8; k++ {
		push := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(k),
			Payload: wire.EncodePush(encodedDiff(t, k, byte(k)))})
		if push.Status != wire.StatusOK {
			t.Fatalf("push %d: %s", k, push.Payload)
		}
	}

	// Policy defaults to the server-wide retention (keep-all here).
	pol := call(t, conn, &wire.Frame{Type: wire.TPolicy, Lineage: h})
	if pol.Status != wire.StatusOK || string(pol.Payload) != "keep-all" {
		t.Fatalf("policy get: %q (%d)", pol.Payload, pol.Status)
	}
	if bad := call(t, conn, &wire.Frame{Type: wire.TPolicy, Lineage: h,
		Payload: []byte("lru")}); bad.Status == wire.StatusOK {
		t.Fatal("bogus policy accepted")
	}

	// Explicit-target compaction to baseline 4.
	comp := call(t, conn, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 4})
	if comp.Status != wire.StatusOK {
		t.Fatalf("compact: %s", comp.Payload)
	}
	res, err := wire.DecodeCompactResult(comp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.OldBase != 0 || res.NewBase != 4 || res.Pruned != 4 {
		t.Fatalf("compact result %+v", res)
	}

	// Folded checkpoints are gone; the baseline serves as a full diff.
	if pull := call(t, conn, pullOne(h, 2)); pull.Status == wire.StatusOK {
		t.Fatal("pull below the baseline succeeded")
	}
	if pull := call(t, conn, pullOne(h, 4)); pull.Status != wire.StatusOK {
		t.Fatalf("pull at baseline: %s", pull.Payload)
	}

	// A fresh open reports span [4, 8).
	open2 := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("lin")})
	base, err := wire.DecodeOpenInfo(open2.Payload)
	if err != nil || open2.Ckpt != 8 || base != 4 {
		t.Fatalf("reopen: len %d base %d (%v)", open2.Ckpt, base, err)
	}

	// Policy-driven compaction: keep-last=2 folds up to 6.
	set := call(t, conn, &wire.Frame{Type: wire.TPolicy, Lineage: h, Payload: []byte("keep-last=2")})
	if set.Status != wire.StatusOK || string(set.Payload) != "keep-last=2" {
		t.Fatalf("policy set: %q (%d)", set.Payload, set.Status)
	}
	comp2 := call(t, conn, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: wire.CompactAuto})
	res2, err := wire.DecodeCompactResult(comp2.Payload)
	if err != nil || res2.NewBase != 6 {
		t.Fatalf("auto compact: %+v (%v)", res2, err)
	}

	// Both compactions land in the stats counters.
	stats := call(t, conn, &wire.Frame{Type: wire.TStats})
	st, err := wire.DecodeStats(stats.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compactions != 2 || st.CompactedDiffs != 6 {
		t.Fatalf("stats: %+v", st)
	}

	// The list reports the compacted span.
	list := call(t, conn, &wire.Frame{Type: wire.TList})
	infos, err := wire.DecodeList(list.Payload)
	if err != nil || len(infos) != 1 || infos[0].Base != 6 || infos[0].Len != 8 {
		t.Fatalf("list: %+v (%v)", infos, err)
	}
}

// TestServerBackgroundCompaction configures a retention policy and a
// short compaction interval and waits for the worker to fold the
// lineage on its own.
func TestServerBackgroundCompaction(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir(),
		Retention: "keep-last=2", CompactInterval: 20 * time.Millisecond})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("bg")})
	h := open.Lineage
	for k := 0; k < 6; k++ {
		push := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(k),
			Payload: wire.EncodePush(encodedDiff(t, k, byte(k)))})
		if push.Status != wire.StatusOK {
			t.Fatalf("push %d: %s", k, push.Payload)
		}
	}

	// The worker may fire mid-push and fold a shorter prefix first, and
	// it counts a compaction after publishing its baseline; the settled
	// state is what the policy promises: the last two of six, counted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		open2 := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("bg")})
		base, err := wire.DecodeOpenInfo(open2.Payload)
		if err != nil {
			t.Fatal(err)
		}
		st, err := wire.DecodeStats(call(t, conn, &wire.Frame{Type: wire.TStats}).Payload)
		if err != nil {
			t.Fatal(err)
		}
		if base == 4 && open2.Ckpt == 6 && st.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never settled: len %d base %d compactions %d",
				open2.Ckpt, base, st.Compactions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The retained span still pulls cleanly.
	for k := uint32(4); k < 6; k++ {
		if pull := call(t, conn, pullOne(h, k)); pull.Status != wire.StatusOK {
			t.Fatalf("pull %d after compaction: %s", k, pull.Payload)
		}
	}
}

// TestServerCrossLineageDedup pushes the same checkpoint payload into
// two lineages over the wire and checks the shared block store interned
// the data section once, that both pulls reassemble the canonical
// bytes, and that the dedup shows up in STATS.
func TestServerCrossLineageDedup(t *testing.T) {
	root := t.TempDir()
	_, addr, stop := startServer(t, Config{Root: root})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	enc := encodedDiff(t, 0, 0x5A)
	handles := make([]uint32, 2)
	for i, name := range []string{"job-a", "job-b"} {
		open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte(name)})
		if open.Status != wire.StatusOK {
			t.Fatalf("open %s: %+v", name, open)
		}
		handles[i] = open.Lineage
		push := call(t, conn, &wire.Frame{Type: wire.TPush, Lineage: handles[i], Ckpt: 0,
			Payload: wire.EncodePush(enc)})
		if push.Status != wire.StatusOK {
			t.Fatalf("push %s: %+v (%s)", name, push, push.Payload)
		}
	}
	for i := range handles {
		pull := call(t, conn, pullOne(handles[i], 0))
		if pull.Status != wire.StatusOK || !bytes.Equal(pull.Payload, wire.EncodePush(enc)) {
			t.Fatalf("pull lineage %d: status %d, %d bytes", i, pull.Status, len(pull.Payload))
		}
	}

	resp := call(t, conn, &wire.Frame{Type: wire.TStats})
	st, err := wire.DecodeStats(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksInterned == 0 {
		t.Fatal("stats report zero interned blocks after two pushes")
	}
	if st.BlockDedupHits != st.BlocksInterned {
		t.Fatalf("dedup hits %d, want %d (second lineage should hit every block)",
			st.BlockDedupHits, st.BlocksInterned)
	}
	if st.BlockBytesSaved == 0 {
		t.Fatal("stats report zero bytes saved")
	}
}

// TestServerReservedLineageName checks that underscore-prefixed names —
// the namespace the _blocks store lives in — are rejected at open, and
// that an existing _blocks directory is not misread as a lineage when
// the server restarts over the root.
func TestServerReservedLineageName(t *testing.T) {
	root := t.TempDir()
	srv, addr, stop := startServer(t, Config{Root: root})
	conn := testConn(t, addr)
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("_blocks")})
	if open.Status != wire.StatusErr {
		t.Fatalf("open _blocks: %+v", open)
	}
	if n := len(srv.snapshot()); n != 0 {
		t.Fatalf("reserved open registered %d lineages", n)
	}
	conn.Close()
	stop()

	// Reopen over the same root: the _blocks directory created by the
	// first server must be skipped by the lineage scan.
	srv2, _, stop2 := startServer(t, Config{Root: root})
	defer stop2()
	if n := len(srv2.snapshot()); n != 0 {
		t.Fatalf("restart scanned %d lineages, want 0", n)
	}
}

// TestRaceServeJoinsWorkersOnListenerError pulls the listener out from
// under Serve — the terminal accept-error path — and checks that Serve
// still joins its background workers before returning. The caller's
// next move after Serve returns is Close, which tears down the block
// store the compaction worker shares; a worker that only watched ctx
// (the old behavior) kept compacting against a closed store. The
// goroutine-count poll makes the leak fail deterministically: a leaked
// compactLoop never exits, so the count never settles.
func TestRaceServeJoinsWorkersOnListenerError(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(quiet(Config{Root: t.TempDir(), CompactInterval: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), ln) }()
	time.Sleep(10 * time.Millisecond) // let the compaction ticker fire
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil after the listener was closed underneath it")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the listener was closed underneath it")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked past Serve: %d, want <= %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatusOf pins the one error → status-byte mapping over every typed
// error that crosses the server boundary, bare and wrapped, and that
// both response shapes — a request/response error frame and a stream
// ack — carry it, so the client decodes the same typed error either way.
func TestStatusOf(t *testing.T) {
	srv, err := New(quiet(Config{Root: t.TempDir()}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, unknown := srv.get(12345)
	cases := []struct {
		err    error
		status uint8
		is     error // the sentinel the client's decoded error must match, if any
	}{
		{wire.ErrBusy, wire.StatusBusy, wire.ErrBusy},
		{fmt.Errorf("lineage %q: %w", "lin", wire.ErrBusy), wire.StatusBusy, wire.ErrBusy},
		{wire.ErrUnsupported, wire.StatusUnsupported, wire.ErrUnsupported},
		{fmt.Errorf("request 0x7f: %w", wire.ErrUnsupported), wire.StatusUnsupported, wire.ErrUnsupported},
		{unknown, wire.StatusUnknownHandle, wire.ErrUnknownHandle},
		{checkpoint.ErrSpanMoved, wire.StatusSpanMoved, wire.ErrSpanMoved},
		{fmt.Errorf("server: pull lineage %q: %w", "lin", checkpoint.ErrSpanMoved), wire.StatusSpanMoved, wire.ErrSpanMoved},
		{&checkpoint.CorruptError{Ckpt: 3}, wire.StatusErr, nil},
		{checkpoint.ErrOldLayout, wire.StatusErr, nil},
		{errors.New("disk full"), wire.StatusErr, nil},
	}
	if got := statusOf(nil); got != wire.StatusOK {
		t.Fatalf("statusOf(nil) = %d", got)
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.status {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.status)
		}
		resp := srv.errFrame(&wire.Frame{Type: wire.TPull}, c.err)
		ackFrame, err := wire.ReadFrame(bytes.NewReader(srv.appendStreamAck(nil, 1, 2, 3, c.err)), 0)
		if err != nil || ackFrame.Type != wire.TPushStream || ackFrame.Lineage != 1 || ackFrame.Ckpt != 2 {
			t.Fatalf("%v: stream ack frame %+v: %v", c.err, ackFrame, err)
		}
		ack, err := wire.DecodeStreamAck(ackFrame.Payload)
		if err != nil {
			t.Fatalf("%v: stream ack undecodable: %v", c.err, err)
		}
		for shape, decoded := range map[string]error{"error frame": resp.Err(), "stream ack": ack.Err(ackFrame.Status)} {
			var re *wire.RemoteError
			if !errors.As(decoded, &re) {
				t.Errorf("%v as %s decodes to %v, want a RemoteError", c.err, shape, decoded)
			}
			for _, sentinel := range []error{wire.ErrBusy, wire.ErrUnsupported, wire.ErrUnknownHandle, wire.ErrSpanMoved} {
				if errors.Is(decoded, sentinel) != (sentinel == c.is) {
					t.Errorf("%v as %s: errors.Is(%v) = %v", c.err, shape, sentinel, sentinel != c.is)
				}
			}
		}
		if resp.Status != c.status || ackFrame.Status != c.status {
			t.Errorf("%v: error frame status %d, stream ack status %d, want %d", c.err, resp.Status, ackFrame.Status, c.status)
		}
	}
}
