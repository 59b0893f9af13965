// The v5 TSubscribe serving path: cursor validation, then one loop
// that serves the lineage from the store.
//
// Protocol contract (DESIGN.md §15): a rejected cursor is answered
// with a TResync RESPONSE and the connection stays in request mode —
// the subscriber pulls the authoritative span over the same
// connection and re-subscribes. An accepted subscription consumes the
// connection: the server pushes TTail frames until the client closes,
// the server shuts down, or a barrier (fold, shutdown) ends the stream
// with a final TResync — after which the server closes the
// connection, so a mid-stream TResync is always terminal.
//
// The backlog and the live tail are one thing: the diffs [next, Len)
// of the generation the subscriber registered at, read back from the
// store, verified, each into a frame buffer borrowed from the free list
// (frames.go) for one wake and handed back before the loop waits for
// the next. A stalled subscriber costs one goroutine and at most that
// one buffer.

package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// serveSubscribe handles one TSubscribe request on a v5 connection.
// It returns true when the connection can keep serving requests (the
// subscription was refused with a typed response) and false when the
// subscription consumed the connection.
func (s *Server) serveSubscribe(ctx context.Context, stop <-chan struct{}, conn net.Conn,
	br *bufio.Reader, bw *bufio.Writer, req *wire.Frame) bool {
	caddr := conn.RemoteAddr().String()
	respond := func(resp *wire.Frame) bool {
		if err := s.writeResp(bw, conn, resp); err != nil {
			s.cfg.Logf("server: %s: subscribe: %v", caddr, err)
			return false
		}
		return true
	}
	refuse := func(err error) bool {
		resp := s.errFrame(req, err)
		resp.Lineage = req.Lineage
		return respond(resp)
	}

	cur, err := wire.DecodeSubscribe(req.Payload)
	if err != nil {
		return refuse(err)
	}
	ln, err := s.get(req.Lineage)
	if err != nil {
		return refuse(err)
	}
	release, err := ln.acquire()
	if err != nil {
		return refuse(err)
	}
	n := ln.store.Len()
	if int64(n) > math.MaxUint32 {
		release()
		return refuse(fmt.Errorf("lineage length %d does not fit the stream format", n))
	}
	base := ln.store.Base()
	if !s.cursorContinuable(ln, cur, base, n) {
		release()
		// The cursor cannot be resumed: answer with a TResync response
		// carrying the authoritative span. The connection stays in
		// request mode so the subscriber can pull it right here.
		return respond(&wire.Frame{Type: wire.TResync, Status: wire.StatusOK, Lineage: req.Lineage,
			Payload: wire.EncodeResync(wire.Resync{Reason: wire.ResyncFold, Base: uint32(base), Len: uint32(n)})})
	}
	// The tail is pinned and the subscriber registered under the lineage
	// lock: every diff of this generation from cur.Next on is either in
	// the store now or followed by a wake.
	span, err := ln.store.Tail(int(cur.Next))
	if err != nil {
		release()
		return refuse(err)
	}
	sub := s.hub.register(ln)
	release()
	s.subscribes.Add(1)

	ack := &wire.Frame{Type: wire.TSubscribe, Status: wire.StatusOK, Lineage: req.Lineage,
		Ckpt: uint32(n), Payload: wire.EncodeSubscribeAck(wire.SubscribeAck{Base: uint32(base), Len: uint32(n)})}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	werr := wire.WriteFrame(bw, ack)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr != nil {
		s.cfg.Logf("server: %s: subscribe ack: %v", caddr, werr)
		s.hub.unregister(ln, sub)
		return false
	}
	s.bytesOut.Add(uint64(ack.WireSize()))
	s.runSubscription(ctx, stop, conn, br, sub, ln, span, req.Lineage)
	return false
}

// cursorContinuable decides whether a resume cursor can continue the
// stored lineage without a re-pull: same baseline, next within
// [base, n], and — when the subscriber already holds diffs — a CRC
// match between its last diff and the server's stored copy. Called
// with the lineage lock held.
func (s *Server) cursorContinuable(ln *lineage, cur wire.Cursor, base, n int) bool {
	if cur.Base != uint32(base) || int64(cur.Next) > int64(n) {
		return false
	}
	if cur.Next == cur.Base {
		return true // subscriber holds nothing past the baseline
	}
	return ln.holds(int(cur.Next)-1, cur.CRC)
}

// runSubscription owns the connection from ack to teardown. It is one
// loop: serve what span reaches — [next, Len) of the generation the
// subscriber registered at — then wait for a wake, a barrier or the
// end. Frames are written straight to the socket (bypassing bw, which
// was flushed before this call): header and CRC prefix staged into a
// reused buffer, the diff handed to writev untouched. A diff that fails
// verification ends the stream without a barrier: the cursor is still
// good, and a later subscription resumes once the diff is healed.
func (s *Server) runSubscription(ctx context.Context, stop <-chan struct{}, conn net.Conn,
	br *bufio.Reader, sub *tailSub, ln *lineage, span checkpoint.Span, handle uint32) {
	caddr := conn.RemoteAddr().String()
	defer s.hub.unregister(ln, sub)

	// Watchdog: a subscribed client sends nothing more, so any byte —
	// or EOF, or a reset — means the subscription is over. The read
	// goes through br (the client's half of the subscribe exchange is
	// fully consumed, but a pipelined byte could already sit there).
	// The deferred conn.Close unblocks the read; the WaitGroup joins
	// the goroutine before return (ckptlint goroleak).
	conn.SetReadDeadline(time.Time{})
	readerGone := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer conn.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(readerGone)
		_, _ = br.ReadByte()
	}()

	var stage []byte
	var vec net.Buffers
	// writeVec stages hdr (and any prefix already appended to stage)
	// plus parts into one writev.
	writeVec := func(payloadLen int, parts ...[]byte) error {
		vec = vec[:0]
		vec = append(vec, stage)
		vec = append(vec, parts...)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := wire.WriteFrameVec(conn, &vec); err != nil {
			return err
		}
		s.bytesOut.Add(uint64(wire.HeaderSize + payloadLen))
		return nil
	}
	sendResync := func(r wire.Resync) {
		var err error
		stage, err = wire.AppendFrameHeader(stage[:0], wire.TResync, wire.StatusOK, handle, 0, wire.ResyncSize)
		if err != nil {
			return
		}
		stage = wire.AppendResync(stage, r)
		if err := writeVec(wire.ResyncSize); err != nil && !wire.IsClean(err) {
			s.cfg.Logf("server: %s: resync write: %v", caddr, err)
		}
	}
	// sendResyncNow reads the current span from the store. The
	// lineage lock is NOT held here, so (base, len) may straddle a
	// concurrent fold — harmless: the reported span only seeds the
	// subscriber's next subscribe attempt, which revalidates.
	sendResyncNow := func(reason uint8) {
		sendResync(wire.Resync{Reason: reason, Base: uint32(ln.store.Base()), Len: uint32(ln.store.Len())})
	}
	// over reports whether the subscription has ended — a fold barrier,
	// a stopping server, a reader that is gone — and sends the barrier
	// that ends it, if any.
	over := func() bool {
		select {
		case <-sub.stop:
			sendResync(sub.verdict())
		case <-stop:
			sendResyncNow(wire.ResyncShutdown)
		case <-ctx.Done():
			sendResyncNow(wire.ResyncShutdown)
		case <-readerGone:
		default:
			return false
		}
		return true
	}

	var pb pullBuf
	next, _ := span.Bounds()
	// catchUp sends the TTail frames of [next, Len) and reports whether
	// the subscription goes on. The frame buffer is the free list's for
	// the length of the call.
	catchUp := func() bool {
		var err error
		if span, err = span.Follow(); err != nil {
			sendResyncNow(wire.ResyncFold)
			return false
		}
		_, to := span.Bounds()
		if next == to {
			return true
		}
		pb.frame.Payload = s.frames.largest()
		defer func() {
			s.frames.put(pb.frame.Payload)
			pb.frame.Payload = nil
		}()
		for ; next < to; next++ {
			if over() {
				return false
			}
			if err := pb.load(span, next); err != nil {
				if errors.Is(err, checkpoint.ErrSpanMoved) {
					sendResyncNow(wire.ResyncFold)
				} else {
					s.cfg.Logf("server: %s: tail of lineage %q: %v", caddr, ln.name, err)
				}
				return false
			}
			encoded := pb.frame.Payload
			payloadLen := wire.PushChecksumSize + len(encoded)
			if stage, err = wire.AppendFrameHeader(stage[:0], wire.TTail, wire.StatusOK, handle, uint32(next), payloadLen); err == nil {
				stage = binary.BigEndian.AppendUint32(stage, wire.Checksum(encoded))
				err = writeVec(payloadLen, encoded)
			}
			if err != nil {
				if !wire.IsClean(err) {
					s.cfg.Logf("server: %s: tail write: %v", caddr, err)
				}
				return false
			}
			s.tailFrames.Add(1)
		}
		return true
	}
	for !over() && catchUp() {
		select {
		case <-sub.wake:
		case <-sub.stop:
		case <-stop:
		case <-ctx.Done():
		case <-readerGone:
		}
	}
}

// foldBarrier stops every live subscriber of ln with the fold verdict
// [newBase, Len): a compaction just committed a baseline move, so every
// resume cursor is stale. Runs under the lineage lock the fold held;
// the hub is a leaf, so the barrier is delivered without new lock-order
// edges.
func (s *Server) foldBarrier(ln *lineage, newBase int) {
	n := ln.store.Len()
	if int64(n) > math.MaxUint32 {
		return
	}
	stopped := s.hub.fold(ln, uint32(newBase), uint32(n))
	s.foldBarriers.Add(uint64(stopped))
}
