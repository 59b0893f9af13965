// The TSubscribe serving path: cursor validation, then one loop that
// serves the lineage from the store.
//
// Protocol contract (DESIGN.md §15): a subscription is answered like
// any request. A cursor the server cannot continue gets a
// StatusSpanMoved error frame and the connection stays in request mode
// — the subscriber pulls the lineage's current span over the same
// connection and re-subscribes. An accepted subscription gets an empty
// OK frame and consumes the connection: the server pushes TTail frames
// until the stream ends — a fold or install moved the span, the server
// stops, a diff fails verification, the reader is gone — and then
// closes the connection without sending anything first.
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

// serveSubscribe handles one TSubscribe request. It returns true when
// the connection can keep serving requests (the subscription was
// refused with an error frame) and false when the subscription consumed
// the connection.
func (s *Server) serveSubscribe(ctx context.Context, stop <-chan struct{}, conn net.Conn,
	br *bufio.Reader, bw *bufio.Writer, req *wire.Frame) bool {
	caddr := conn.RemoteAddr().String()
	refuse := func(err error) bool {
		resp := s.errFrame(req, err)
		resp.Lineage = req.Lineage
		if err := s.writeResp(bw, conn, resp); err != nil {
			s.cfg.Logf("server: %s: subscribe: %v", caddr, err)
			return false
		}
		return true
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
		return refuse(fmt.Errorf("%w: cursor {base %d, next %d} does not continue [%d,%d)",
			checkpoint.ErrSpanMoved, cur.Base, cur.Next, base, n))
	}
	// The tail is pinned and the subscriber registered under the lineage
	// lock: every change to the lineage from here on is either in the
	// store now or followed by a wake.
	span, err := ln.store.Tail(int(cur.Next))
	if err != nil {
		release()
		return refuse(err)
	}
	sub := s.hub.register(ln)
	release()
	s.subscribes.Add(1)

	err = s.writeResp(bw, conn, &wire.Frame{Type: wire.TSubscribe, Status: wire.StatusOK, Lineage: req.Lineage, Ckpt: uint32(n)})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		s.cfg.Logf("server: %s: subscribe ack: %v", caddr, err)
		s.hub.unregister(ln, sub)
		return false
	}
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
// subscriber registered at — then wait for a wake or the end. Frames
// are written straight to the socket (bypassing bw, which was flushed
// before this call): header and CRC prefix staged into a reused
// buffer, the diff handed to writev untouched. Whatever ends the
// stream, the deferred close is all the subscriber is told: a span
// that moved refuses its next subscribe, and a diff that failed
// verification is served to it once healed, from the same cursor.
func (s *Server) runSubscription(ctx context.Context, stop <-chan struct{}, conn net.Conn,
	br *bufio.Reader, sub chan struct{}, ln *lineage, span checkpoint.Span, handle uint32) {
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

	// over reports whether the server is stopping or the reader is gone.
	over := func() bool {
		select {
		case <-stop:
		case <-ctx.Done():
		case <-readerGone:
		default:
			return false
		}
		return true
	}
	// ended reports why a read of the lineage ended the stream: a moved
	// span is counted, anything else logged.
	ended := func(err error) bool {
		if errors.Is(err, checkpoint.ErrSpanMoved) {
			s.foldEnds.Add(1)
		} else {
			s.cfg.Logf("server: %s: tail of lineage %q: %v", caddr, ln.name, err)
		}
		return false
	}

	var stage []byte
	var vec net.Buffers
	var pb pullBuf
	next, _ := span.Bounds()
	// catchUp sends the TTail frames of [next, Len) and reports whether
	// the subscription goes on. The frame buffer is the free list's for
	// the length of the call.
	catchUp := func() bool {
		var err error
		if span, err = span.Follow(); err != nil {
			return ended(err)
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
			if err := pb.load(span, next, &s.frames); err != nil {
				return ended(err)
			}
			encoded := pb.frame.Payload
			payloadLen := wire.PushChecksumSize + len(encoded)
			if stage, err = wire.AppendFrameHeader(stage[:0], wire.TTail, wire.StatusOK, handle, uint32(next), payloadLen); err == nil {
				stage = binary.BigEndian.AppendUint32(stage, wire.Checksum(encoded))
				vec = append(vec[:0], stage, encoded)
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				err = wire.WriteFrameVec(conn, &vec)
			}
			if err != nil {
				if !wire.IsClean(err) {
					s.cfg.Logf("server: %s: tail write: %v", caddr, err)
				}
				return false
			}
			s.bytesOut.Add(uint64(wire.HeaderSize + payloadLen))
			s.tailFrames.Add(1)
		}
		return true
	}
	for !over() && catchUp() {
		select {
		case <-sub:
		case <-stop:
		case <-ctx.Done():
		case <-readerGone:
		}
	}
}
