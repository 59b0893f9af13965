// The v5 TSubscribe serving path: cursor validation, store-backlog
// replay, and the live tail loop fed by the hub.
//
// Protocol contract (DESIGN.md §15): a rejected cursor is answered
// with a TResync RESPONSE and the connection stays in request mode —
// the subscriber pulls the authoritative span over the same
// connection and re-subscribes. An accepted subscription consumes the
// connection: the server pushes TTail frames until the client closes,
// the server shuts down, or a barrier (fold, lag) ends the stream
// with a final TResync — after which the server closes the
// connection, so a mid-stream TResync is always terminal.
//
// A live TTail payload is the pushed frame as the intake staged it,
// shared with the run and every other subscriber (hub.go): the loop
// writes it straight from that buffer and releases its reference once
// the write returns, or without writing it for an event it skips. When
// the subscription ends, unregister releases what is still queued.

package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

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
	// Registration happens under the lineage lock: every append after
	// this point reaches sub.ch, every earlier diff is in the store —
	// the backlog [cur.Next, n) plus the queue is gap-free.
	sub := s.hub.register(ln, s.cfg.SubscriberQueue)
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
	s.runSubscription(ctx, stop, conn, br, sub, ln, req.Lineage, cur.Next, uint32(n))
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

// runSubscription owns the connection from ack to teardown: replay
// the store backlog [next, n), then relay live hub events. Frames
// are written straight to the socket (bypassing bw, which was flushed
// before this call) with the v4 zero-copy staging: header — plus CRC
// prefix for backlog frames — staged into a reused buffer, payload
// bytes handed to writev untouched. Its deferred unregister releases
// the events left in the queue.
func (s *Server) runSubscription(ctx context.Context, stop <-chan struct{}, conn net.Conn,
	br *bufio.Reader, sub *tailSub, ln *lineage, handle, next, n uint32) {
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
	sendResync := func(reason uint8, base, length uint32) {
		var err error
		stage, err = wire.AppendFrameHeader(stage[:0], wire.TResync, wire.StatusOK, handle, 0, wire.ResyncSize)
		if err != nil {
			return
		}
		stage = wire.AppendResync(stage, wire.Resync{Reason: reason, Base: base, Len: length})
		if err := writeVec(wire.ResyncSize); err != nil && !wire.IsClean(err) {
			s.cfg.Logf("server: %s: resync write: %v", caddr, err)
		}
	}
	// sendResyncNow reads the current span from the store. The
	// lineage lock is NOT held here, so (base, len) may straddle a
	// concurrent fold — harmless: the reported span only seeds the
	// subscriber's next subscribe attempt, which revalidates.
	sendResyncNow := func(reason uint8) {
		sendResync(reason, uint32(ln.store.Base()), uint32(ln.store.Len()))
	}

	// Backlog: serve [next, n) from the store without the lineage
	// lock — DiffBytes is internally consistent, and if a concurrent
	// fold prunes a diff out from under us the read error is exactly
	// the fold barrier the subscriber would have received anyway.
	for next < n {
		select {
		case <-sub.stop:
			reason, base, length := sub.verdict()
			sendResync(reason, base, length)
			return
		case <-readerGone:
			return
		case <-stop:
			sendResyncNow(wire.ResyncShutdown)
			return
		case <-ctx.Done():
			sendResyncNow(wire.ResyncShutdown)
			return
		default:
		}
		encoded, err := ln.store.DiffBytes(int(next))
		if err != nil {
			sendResyncNow(wire.ResyncFold)
			return
		}
		payloadLen := wire.PushChecksumSize + len(encoded)
		stage, err = wire.AppendFrameHeader(stage[:0], wire.TTail, wire.StatusOK, handle, next, payloadLen)
		if err != nil {
			s.cfg.Logf("server: %s: tail frame: %v", caddr, err)
			return
		}
		stage = binary.BigEndian.AppendUint32(stage, wire.Checksum(encoded))
		if err := writeVec(payloadLen, encoded); err != nil {
			if !wire.IsClean(err) {
				s.cfg.Logf("server: %s: tail write: %v", caddr, err)
			}
			return
		}
		s.tailFrames.Add(1)
		next++
	}

	// Live loop: relay hub events in order. A gap means the bounded
	// queue dropped events after the registration snapshot — the
	// cursor is still valid, so it is a lag barrier, not a fold.
	for {
		select {
		case ev := <-sub.ch:
			if ev.ckpt < next {
				ev.frame.release()
				continue // already served from the backlog
			}
			if ev.ckpt != next {
				ev.frame.release()
				sendResyncNow(wire.ResyncLag)
				return
			}
			// The write returns once the payload has left the buffer, so
			// the reference goes back right after it.
			payload := ev.frame.buf
			var err error
			if stage, err = wire.AppendFrameHeader(stage[:0], wire.TTail, wire.StatusOK, handle, ev.ckpt, len(payload)); err == nil {
				err = writeVec(len(payload), payload)
			}
			ev.frame.release()
			if err != nil {
				if !wire.IsClean(err) {
					s.cfg.Logf("server: %s: tail write: %v", caddr, err)
				}
				return
			}
			s.tailFrames.Add(1)
			next++
		case <-sub.stop:
			reason, base, length := sub.verdict()
			sendResync(reason, base, length)
			return
		case <-readerGone:
			return
		case <-stop:
			sendResyncNow(wire.ResyncShutdown)
			return
		case <-ctx.Done():
			sendResyncNow(wire.ResyncShutdown)
			return
		}
	}
}

// foldBarrier sheds every live subscriber of ln with the fold verdict
// [newBase, Len): a compaction just committed a baseline move, so every
// resume cursor is stale. Runs under the lineage lock the fold held;
// the hub is a leaf, so the barrier is delivered without new lock-order
// edges.
func (s *Server) foldBarrier(ln *lineage, newBase int) {
	if s.hub.count(ln) == 0 {
		return
	}
	n := ln.store.Len()
	if int64(n) > math.MaxUint32 {
		return
	}
	shed := s.hub.fold(ln, uint32(newBase), uint32(n))
	s.foldBarriers.Add(uint64(shed))
}
