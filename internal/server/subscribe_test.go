package server

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/lifecycle"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// followReq builds the follow pull of lineage h from the cursor cur:
// the TPull request of a subscription.
func followReq(h uint32, cur wire.Pull) *wire.Frame {
	cur.To = wire.PullFollow
	return &wire.Frame{Type: wire.TPull, Lineage: h, Ckpt: cur.From, Payload: wire.AppendPull(nil, cur)}
}

// subscribeOn opens name on conn, sends the follow pull from cur, and
// waits until srv has accepted it: an accepted follow pull has no
// answer of its own, only the diffs from cur.From on. It returns the
// handle.
func subscribeOn(t testing.TB, srv *Server, conn net.Conn, name string, cur wire.Pull) uint32 {
	t.Helper()
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte(name)})
	if open.Status != wire.StatusOK {
		t.Fatalf("open: %+v", open)
	}
	accepted := srv.Subscribes()
	if err := wire.WriteFrame(conn, followReq(open.Lineage, cur)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Subscribes() == accepted; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the follow pull from %+v was not accepted", cur)
		}
	}
	return open.Lineage
}

// readTail reads the next frame off a follow pull's connection.
func readTail(t *testing.T, conn net.Conn) *wire.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading tail stream: %v", err)
	}
	return fr
}

// readClosed reads off a follow pull's connection and fails unless the
// server closed the stream, sending nothing first.
func readClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if fr, err := wire.ReadFrame(conn, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("read %+v (%v), want the stream closed", fr, err)
	}
}

// TestSubscribeBacklogThenLive is the core subscription contract: an accepted
// follow pull first replays the stored backlog past the cursor, then
// streams every subsequently pushed diff, in order, checksummed.
func TestSubscribeBacklogThenLive(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()

	pusher := testConn(t, addr)
	defer pusher.Close()
	open := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("sub")})
	h := open.Lineage
	want := make([][]byte, 0, 3)
	for ck := 0; ck < 2; ck++ {
		enc := encodedDiff(t, ck, byte(0x10+ck))
		want = append(want, enc)
		if resp := call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(ck),
			Payload: wire.EncodePush(enc)}); resp.Status != wire.StatusOK {
			t.Fatalf("push %d: %+v", ck, resp)
		}
	}

	sub := testConn(t, addr)
	defer sub.Close()
	subscribeOn(t, srv, sub, "sub", wire.Pull{})

	// A third diff pushed while the subscription is live.
	enc := encodedDiff(t, 2, 0x12)
	want = append(want, enc)
	if resp := call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: 2,
		Payload: wire.EncodePush(enc)}); resp.Status != wire.StatusOK {
		t.Fatalf("live push: %+v", resp)
	}

	for ck := 0; ck < 3; ck++ {
		fr := readTail(t, sub)
		if fr.Type != wire.TPull || fr.Status != wire.StatusOK || fr.Ckpt != uint32(ck) {
			t.Fatalf("tail frame %d: type %#x status %d ckpt %d", ck, fr.Type, fr.Status, fr.Ckpt)
		}
		crc, encoded, err := wire.DecodePush(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if crc != wire.Checksum(encoded) {
			t.Fatalf("tail frame %d checksum mismatch", ck)
		}
		if !bytes.Equal(encoded, want[ck]) {
			t.Fatalf("tail frame %d carries wrong bytes", ck)
		}
	}
	// TailFrames counts frames whose write has returned, so the third
	// increment may land a moment after this side has read the frame.
	deadline := time.Now().Add(5 * time.Second)
	for srv.TailFrames() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Subscribes() != 1 || srv.TailFrames() < 3 {
		t.Fatalf("counters: subscribes %d tailFrames %d", srv.Subscribes(), srv.TailFrames())
	}
}

// TestSubscribeStaleCursorKeepsConnection: a rejected cursor answers
// with a StatusSpanMoved error frame and leaves the connection in
// request mode — the subscriber pulls the span and follows again on the
// same socket.
func TestSubscribeStaleCursorKeepsConnection(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()

	pusher := testConn(t, addr)
	defer pusher.Close()
	open := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("stale")})
	enc := encodedDiff(t, 0, 0x77)
	call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 0,
		Payload: wire.EncodePush(enc)})

	sub := testConn(t, addr)
	defer sub.Close()
	h := call(t, sub, &wire.Frame{Type: wire.TOpen, Payload: []byte("stale")}).Lineage
	// CRC does not match the stored diff 0: continuity is unprovable.
	resp := call(t, sub, followReq(h, wire.Pull{Base: 0, From: 1, CRC: 0xDEAD}))
	if resp.Type != wire.TPull || resp.Status != wire.StatusSpanMoved {
		t.Fatalf("stale cursor: %+v, want a StatusSpanMoved error frame", resp)
	}
	if err := resp.Err(); !errors.Is(err, wire.ErrSpanMoved) {
		t.Fatalf("stale cursor: %v, want wire.ErrSpanMoved", err)
	}

	// Same connection still serves requests: pull the span...
	pull := call(t, sub, pullOne(h, 0))
	if pull.Status != wire.StatusOK || !bytes.Equal(pull.Payload, wire.EncodePush(enc)) {
		t.Fatalf("pull on kept connection: %+v", pull)
	}
	// ...and accepts the corrected cursor: the next push reaches it.
	if err := wire.WriteFrame(sub, followReq(h, wire.Pull{Base: 0, From: 1, CRC: wire.Checksum(enc)})); err != nil {
		t.Fatal(err)
	}
	next := wire.EncodePush(encodedDiff(t, 1, 0x78))
	if resp := call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: open.Lineage, Ckpt: 1, Payload: next}); resp.Status != wire.StatusOK {
		t.Fatalf("push 1: %+v", resp)
	}
	if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Status != wire.StatusOK || fr.Ckpt != 1 || !bytes.Equal(fr.Payload, next) {
		t.Fatalf("after the corrected cursor: %+v", fr)
	}
	if n := srv.Subscribes(); n != 1 {
		t.Fatalf("Subscribes = %d, want 1", n)
	}
}

// TestSubscribeRefusals: malformed cursors and unknown handles refuse
// without tearing the connection down.
func TestSubscribeRefusals(t *testing.T) {
	_, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	conn := testConn(t, addr)
	defer conn.Close()

	resp := call(t, conn, followReq(42, wire.Pull{}))
	if resp.Status != wire.StatusUnknownHandle {
		t.Fatalf("bogus handle: %+v", resp)
	}
	open := call(t, conn, &wire.Frame{Type: wire.TOpen, Payload: []byte("refuse")})
	truncated := followReq(open.Lineage, wire.Pull{})
	truncated.Payload = truncated.Payload[:7]
	if resp := call(t, conn, truncated); resp.Status != wire.StatusErr {
		t.Fatalf("truncated cursor: %+v", resp)
	}
	if resp := call(t, conn, followReq(open.Lineage, wire.Pull{From: 3, Base: 4})); resp.Status != wire.StatusErr {
		t.Fatalf("cursor below its base: %+v", resp)
	}
	// The connection survived the refusals.
	if resp := call(t, conn, &wire.Frame{Type: wire.TList}); resp.Status != wire.StatusOK {
		t.Fatalf("list after refusals: %+v", resp)
	}
}

// bigEncodedDiff is encodedDiff with a data section of size bytes.
func bigEncodedDiff(t *testing.T, ck, size int) []byte {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(ck))).Read(data)
	d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(ck),
		DataLen: uint64(size), ChunkSize: 128, Data: data}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamFanOutRelaysPushedBytes: a group-committed stream batch
// reaches a live subscriber as exactly the payloads the pusher sent —
// checksum prefix included — not as a re-encoding of the decoded diffs.
func TestStreamFanOutRelaysPushedBytes(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()

	sub := testConn(t, addr)
	defer sub.Close()
	subscribeOn(t, srv, sub, "fan", wire.Pull{})

	pusher := testConn(t, addr)
	defer pusher.Close()
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("fan")}).Lineage
	const n = 8
	want := make([][]byte, n)
	var burst bytes.Buffer // one write, so the frames arrive back to back and batch
	for ck := range want {
		want[ck] = wire.EncodePush(bigEncodedDiff(t, ck, 4096))
		if err := wire.WriteFrame(&burst, &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: want[ck]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pusher.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < n; ck++ {
		if ack, err := wire.ReadFrame(pusher, 0); err != nil || ack.Status != wire.StatusOK {
			t.Fatalf("ack %d: %+v, %v", ck, ack, err)
		}
	}
	for ck := 0; ck < n; ck++ {
		fr := readTail(t, sub)
		if fr.Type != wire.TPull || fr.Ckpt != uint32(ck) {
			t.Fatalf("tail frame %d: type %#x ckpt %d", ck, fr.Type, fr.Ckpt)
		}
		if !bytes.Equal(fr.Payload, want[ck]) {
			t.Fatalf("tail frame %d is not the pushed payload", ck)
		}
	}
}

// callAsync sends req on conn and delivers the response, or nil on a
// transport error, on the returned channel.
func callAsync(conn net.Conn, req *wire.Frame) <-chan *wire.Frame {
	ch := make(chan *wire.Frame, 1)
	go func() {
		var resp *wire.Frame
		if err := wire.WriteFrame(conn, req); err == nil {
			resp, _ = wire.ReadFrame(conn, 0)
		}
		ch <- resp
	}()
	return ch
}

// recv waits for the response of a callAsync.
func recv(t *testing.T, ch <-chan *wire.Frame, what string) *wire.Frame {
	t.Helper()
	select {
	case resp := <-ch:
		if resp == nil || resp.Status != wire.StatusOK {
			t.Fatalf("%s: %+v", what, resp)
		}
		return resp
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no response", what)
	}
	return nil
}

// TestFoldEndsSubscription: a fold that moves the baseline — an
// explicit TCompact, a CompactAuto one, or a background compactLoop
// sweep — ends a live follow pull: the server closes the stream. The
// fold is held just past its manifest rename while a push queues on the
// lineage lock; the push lands once the fold is done, before the
// subscriber reads, and still never reaches it as a frame, because the
// follow pull serves only the generation it registered at. The old
// cursor is then refused with StatusSpanMoved, and TOpen reports the
// folded span. A no-op TCompact ends nobody: a subscription resumed on
// the folded span keeps receiving frames, until a fold with no
// push after it ends that one too.
func TestFoldEndsSubscription(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval time.Duration // of the background compactLoop; 0 = off
		policy   string        // set before the fold, if any
		target   uint32        // of the TCompact request; 0 = none sent
	}{
		{name: "TCompact", target: 4},
		{name: "CompactAuto", policy: "keep-last=2", target: wire.CompactAuto},
		{name: "compactLoop", interval: 5 * time.Millisecond, policy: "keep-last=2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr, stop := startServer(t, Config{Root: t.TempDir(), CompactInterval: tc.interval})
			defer stop()
			pusher, ctl, sub := testConn(t, addr), testConn(t, addr), testConn(t, addr)
			defer pusher.Close()
			defer ctl.Close()
			defer sub.Close()

			h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("fold")}).Lineage
			push := func(ck int) *wire.Frame {
				enc := encodedDiff(t, ck, byte(0x20+ck))
				return &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(ck), Payload: wire.EncodePush(enc)}
			}
			for ck := 0; ck < 6; ck++ {
				if resp := call(t, pusher, push(ck)); resp.Status != wire.StatusOK {
					t.Fatalf("push %d: %s", ck, resp.Payload)
				}
			}
			ln, err := srv.get(h)
			if err != nil {
				t.Fatal(err)
			}
			cur := wire.Pull{From: 6, CRC: wire.Checksum(encodedDiff(t, 5, 0x25))}
			subscribeOn(t, srv, sub, "fold", cur)

			// Hold the fold just past its commit point, with the lineage
			// lock held. The hold also sets the lineage to keep-all, under
			// that lock, so that no later sweep folds it again.
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			ln.store.SetHooks(&recframe.Hooks{Seam: func(point, _ string) error {
				if point == recframe.SeamAfterRename {
					once.Do(func() {
						ln.policy = lifecycle.KeepAll()
						close(entered)
						<-release
					})
				}
				return nil
			}})
			if tc.policy != "" {
				if resp := call(t, ctl, &wire.Frame{Type: wire.TPolicy, Lineage: h, Payload: []byte(tc.policy)}); resp.Status != wire.StatusOK {
					t.Fatalf("policy: %s", resp.Payload)
				}
			}
			var compacted <-chan *wire.Frame
			if tc.target != 0 {
				compacted = callAsync(ctl, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: tc.target})
			}
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("no fold reached its commit")
			}
			pushed := callAsync(pusher, push(6))
			for deadline := time.Now().Add(10 * time.Second); ln.pending.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("push never queued on the lineage lock")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			if resp := recv(t, pushed, "push 6"); resp.Ckpt != 7 {
				t.Fatalf("push 6 left length %d", resp.Ckpt)
			}
			if compacted != nil {
				res, err := wire.DecodeCompactResult(recv(t, compacted, "compact").Payload)
				if err != nil || res.OldBase != 0 || res.NewBase != 4 {
					t.Fatalf("compact result %+v (%v)", res, err)
				}
			}

			readClosed(t, sub)
			if resp := call(t, ctl, followReq(h, cur)); resp.Status != wire.StatusSpanMoved {
				t.Fatalf("re-subscribe with the old cursor: %+v, want StatusSpanMoved", resp)
			}
			open := call(t, ctl, &wire.Frame{Type: wire.TOpen, Payload: []byte("fold")})
			if base, err := wire.DecodeOpenInfo(open.Payload); err != nil || base != 4 || open.Ckpt != 7 {
				t.Fatalf("open after the fold: base %d (%v) length %d, want [4,7)", base, err, open.Ckpt)
			}
			if n := srv.FoldEnds(); n != 1 {
				t.Fatalf("FoldEnds = %d, want 1", n)
			}

			// A no-op TCompact ends nobody.
			ln.store.SetHooks(nil)
			sub2 := testConn(t, addr)
			defer sub2.Close()
			cur = wire.Pull{Base: 4, From: 7, CRC: wire.Checksum(encodedDiff(t, 6, 0x26))}
			subscribeOn(t, srv, sub2, "fold", cur)
			res, err := wire.DecodeCompactResult(call(t, ctl, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 4}).Payload)
			if err != nil || res.OldBase != 4 || res.NewBase != 4 {
				t.Fatalf("no-op compact %+v (%v)", res, err)
			}
			if resp := call(t, pusher, push(7)); resp.Status != wire.StatusOK {
				t.Fatalf("push 7: %s", resp.Payload)
			}
			if fr := readTail(t, sub2); fr.Type != wire.TPull || fr.Status != wire.StatusOK || fr.Ckpt != 7 {
				t.Fatalf("after a no-op compact: frame type %#x status %d ckpt %d, want diff 7", fr.Type, fr.Status, fr.Ckpt)
			}
			if n := srv.FoldEnds(); n != 1 {
				t.Fatalf("FoldEnds = %d after a no-op compact, want 1", n)
			}

			// A fold with no push after it ends the idle subscription by
			// itself.
			if res, err := wire.DecodeCompactResult(call(t, ctl, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 6}).Payload); err != nil || res.NewBase != 6 {
				t.Fatalf("second compact %+v (%v)", res, err)
			}
			readClosed(t, sub2)
		})
	}
}

// basicChain returns the push payloads of an n-diff chain over an image
// of size bytes: a Full baseline, then Basic increments, each rewriting
// a different chunk. A fold rewrites its new baseline as a Full diff, so
// the folded lineage holds other bytes at that id than were pushed.
func basicChain(t *testing.T, n, size, chunk int) [][]byte {
	t.Helper()
	state := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(state)
	payloads := make([][]byte, n)
	var prev []byte
	for ck := range payloads {
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: 0, DataLen: uint64(size), ChunkSize: uint32(chunk), Data: state}
		if ck > 0 {
			prev = append(prev[:0], state...)
			state[ck*chunk] ^= 0xFF
			var err error
			if d, err = lifecycle.RewriteBasic(prev, state, chunk, uint32(ck)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		payloads[ck] = wire.EncodePush(buf.Bytes())
	}
	return payloads
}

// TestSubscribeFoldMidBacklog: a follow pull never relays a diff of a
// generation other than its own. The subscriber is mid-backlog, parked
// on an unbuffered pipe in the write of checkpoint 3, when a fold to
// baseline 4 commits; the fold is held just past its manifest rename
// and then kept from waking anyone. The next diff the subscription
// reads — checkpoint 4, which the fold rewrote as a Full baseline — is
// of the new generation, so instead of it the stream ends.
func TestSubscribeFoldMidBacklog(t *testing.T) {
	const n = 6
	want := basicChain(t, n, 4096, 64)
	l := startPipeServer(t, Config{Root: t.TempDir()})
	pusher, ctl, sub := l.dial(t), l.dial(t), l.dial(t)
	defer pusher.Close()
	defer ctl.Close()
	defer sub.Close()
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("fold")}).Lineage
	for ck, p := range want {
		if resp := call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(ck), Payload: p}); resp.Status != wire.StatusOK {
			t.Fatalf("push %d: %s", ck, resp.Payload)
		}
	}
	ln, err := l.srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	subscribeOn(t, l.srv, sub, "fold", wire.Pull{})
	for ck := 0; ck < 3; ck++ {
		if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
			t.Fatalf("backlog frame %d: type %#x ckpt %d", ck, fr.Type, fr.Ckpt)
		}
	}
	// The header of checkpoint 3: the follow pull has read it from the
	// store and is parked writing its payload.
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(sub, hdr[:]); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ln.store.SetHooks(&recframe.Hooks{Seam: func(point, _ string) error {
		if point == recframe.SeamAfterRename {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	}})
	compacted := callAsync(ctl, &wire.Frame{Type: wire.TCompact, Lineage: h, Ckpt: 4})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the fold never reached its commit")
	}
	rest := make([]byte, len(want[3]))
	if _, err := io.ReadFull(sub, rest); err != nil || !bytes.Equal(rest, want[3]) {
		t.Fatalf("payload of checkpoint 3: %v", err)
	}
	// Let the fold finish with the hub held, so its wake waits: what
	// the subscriber reads next comes from the follow pull alone.
	l.srv.hub.mu.Lock()
	close(release)
	sub.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := wire.ReadFrame(sub, 0)
	l.srv.hub.mu.Unlock()
	if !errors.Is(err, io.EOF) {
		t.Fatalf("after checkpoint 3 the subscriber read %+v (%v; payload is the pushed diff: %v), want the stream closed",
			fr, err, fr != nil && fr.Ckpt < n && bytes.Equal(fr.Payload, want[fr.Ckpt]))
	}
	if res, err := wire.DecodeCompactResult(recv(t, compacted, "compact").Payload); err != nil || res.NewBase != 4 {
		t.Fatalf("compact result %+v (%v)", res, err)
	}
}

// TestSubscribeRotEndsWithoutBarrier: a diff that fails verification is
// not a fold. The follow pull sends the diffs before it, then closes
// the stream without a byte of the rotten diff, uncounted by FoldEnds; the
// subscriber's cursor stays good, and once the diff is reinstalled a
// follow pull resumed from that cursor is sent it byte-exact.
func TestSubscribeRotEndsWithoutBarrier(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Root: t.TempDir()})
	defer stop()
	pusher := testConn(t, addr)
	defer pusher.Close()
	h := call(t, pusher, &wire.Frame{Type: wire.TOpen, Payload: []byte("rot")}).Lineage
	want := make([][]byte, 4)
	for ck := range want {
		want[ck] = encodedDiff(t, ck, byte(0x30+ck))
		if resp := call(t, pusher, &wire.Frame{Type: wire.TPush, Lineage: h, Ckpt: uint32(ck), Payload: wire.EncodePush(want[ck])}); resp.Status != wire.StatusOK {
			t.Fatalf("push %d: %s", ck, resp.Payload)
		}
	}
	ln, err := srv.get(h)
	if err != nil {
		t.Fatal(err)
	}
	path, off, length, err := ln.store.Locate(2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, off+length-1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{^last[0]}, off+length-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// tails subscribes from cur and returns the frames sent until the
	// stream ends or reaches the lineage's end.
	tails := func(cur wire.Pull) []*wire.Frame {
		sub := testConn(t, addr)
		defer sub.Close()
		subscribeOn(t, srv, sub, "rot", cur)
		var got []*wire.Frame
		for {
			sub.SetReadDeadline(time.Now().Add(5 * time.Second))
			fr, err := wire.ReadFrame(sub, 0)
			if errors.Is(err, io.EOF) {
				return got
			}
			if err != nil {
				t.Fatalf("after %d frames: %v", len(got), err)
			}
			got = append(got, fr)
			if fr.Ckpt == uint32(len(want)-1) {
				return got
			}
		}
	}
	got := tails(wire.Pull{})
	if len(got) != 2 {
		t.Fatalf("%d frames before the stream ended, want checkpoints 0 and 1 only", len(got))
	}
	for ck, fr := range got {
		if fr.Type != wire.TPull || fr.Status != wire.StatusOK || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, wire.EncodePush(want[ck])) {
			t.Fatalf("frame %d: type %#x ckpt %d, want the pushed diff", ck, fr.Type, fr.Ckpt)
		}
	}
	if n := srv.FoldEnds(); n != 0 {
		t.Fatalf("%d subscriptions ended as moved by rot", n)
	}

	d, err := checkpoint.DecodeBytes(want[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.store.ReinstallDiff(d); err != nil {
		t.Fatal(err)
	}
	got = tails(wire.Pull{From: 2, CRC: wire.Checksum(want[1])})
	if len(got) != 2 {
		t.Fatalf("%d frames after the reinstall, want checkpoints 2 and 3", len(got))
	}
	for i, fr := range got {
		ck := 2 + i
		if fr.Type != wire.TPull || fr.Status != wire.StatusOK || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, wire.EncodePush(want[ck])) {
			t.Fatalf("frame %d after the reinstall: type %#x ckpt %d, want the pushed diff", i, fr.Type, fr.Ckpt)
		}
	}
}

// TestAntiEntropyWakesSubscribers: what the server's own reconciler
// installs reaches the lineage's subscribers without a push. Server A
// is one round behind its peer B, and a subscriber on A waits at
// Len(A). When B holds a longer suffix, the round reinstalls it on A
// and the subscriber is sent every pulled id as a frame; when B folded
// past A, the round adopts B's span, the subscriber's stream ends, and
// its cursor is refused with StatusSpanMoved.
func TestAntiEntropyWakesSubscribers(t *testing.T) {
	for _, tc := range []struct {
		name string
		fold bool
	}{{"suffix", false}, {"fold", true}} {
		t.Run(tc.name, func(t *testing.T) {
			srvA, addrA, stopA := startServer(t, Config{Root: t.TempDir()})
			defer stopA()
			_, addrB, stopB := startServer(t, Config{Root: t.TempDir()})
			defer stopB()
			a, b, sub := testConn(t, addrA), testConn(t, addrB), testConn(t, addrA)
			defer a.Close()
			defer b.Close()
			defer sub.Close()

			hA := call(t, a, &wire.Frame{Type: wire.TOpen, Payload: []byte("ae")}).Lineage
			hB := call(t, b, &wire.Frame{Type: wire.TOpen, Payload: []byte("ae")}).Lineage
			want := make([][]byte, 6)
			for ck := range want {
				want[ck] = wire.EncodePush(encodedDiff(t, ck, byte(0x40+ck)))
				if ck < 3 {
					if resp := call(t, a, &wire.Frame{Type: wire.TPush, Lineage: hA, Ckpt: uint32(ck), Payload: want[ck]}); resp.Status != wire.StatusOK {
						t.Fatalf("push %d to A: %s", ck, resp.Payload)
					}
				}
				if resp := call(t, b, &wire.Frame{Type: wire.TPush, Lineage: hB, Ckpt: uint32(ck), Payload: want[ck]}); resp.Status != wire.StatusOK {
					t.Fatalf("push %d to B: %s", ck, resp.Payload)
				}
			}
			if tc.fold {
				if resp := call(t, b, &wire.Frame{Type: wire.TCompact, Lineage: hB, Ckpt: 4}); resp.Status != wire.StatusOK {
					t.Fatalf("compact B: %s", resp.Payload)
				}
			}
			cur := wire.Pull{From: 3, CRC: wire.Checksum(encodedDiff(t, 2, 0x42))}
			subscribeOn(t, srvA, sub, "ae", cur)

			peer, err := wireclient.New(addrB, wireclient.Options{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if !srvA.reconcilePeer(peer, map[string]*antientropy.Reconciler{}, map[string]bool{}) {
				t.Fatal("peer B unreachable")
			}

			if !tc.fold {
				for ck := 3; ck < len(want); ck++ {
					if fr := readTail(t, sub); fr.Type != wire.TPull || fr.Ckpt != uint32(ck) || !bytes.Equal(fr.Payload, want[ck]) {
						t.Fatalf("frame type %#x ckpt %d, want the pulled diff %d", fr.Type, fr.Ckpt, ck)
					}
				}
				return
			}
			readClosed(t, sub)
			if resp := call(t, a, followReq(hA, cur)); resp.Status != wire.StatusSpanMoved {
				t.Fatalf("re-subscribe after the adopted fold: %+v, want StatusSpanMoved", resp)
			}
		})
	}
}
