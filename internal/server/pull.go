// The TPull serving path: one request names a span, the server answers
// with one frame per checkpoint. A subscription is a follow pull: a span
// that does not end.
//
// Protocol contract (DESIGN.md §13, §15): the span is validated against
// one snapshot of the lineage, taken under the lineage lock, which is
// released before any block is fetched or any byte is written — a
// stream to a slow reader holds up no push. Each diff is reassembled
// and verified in full before its first byte is sent, then written
// straight to the socket: header and CRC32C prefix staged into a reused
// buffer, the diff handed to writev untouched. A bounded pull that hits
// damage, or a fold that replaced the lineage mid-stream, sends a typed
// non-OK frame that ends the stream with the connection back in request
// mode; the frames before it stay good.
//
// A follow pull's cursor is checked, and its subscriber registered with
// the hub, under the same lock; a cursor the server cannot continue is
// one StatusSpanMoved frame, and the connection stays in request mode.
// An accepted follow pull consumes the connection. It serves what its
// span reaches — [next, Len) of the generation it registered at — then
// waits for a wake, follows the span and serves on, until the stream
// ends: a fold or install moved the span, the server stops, a diff
// fails verification, the reader is gone. Then it closes the connection
// without sending anything first: a span that moved refuses the next
// follow pull from the same cursor, and a diff that failed verification
// is served to it once healed.
//
// Memory: a stream reassembles its diffs in the largest buffer on the
// server's free list (frames.go), grown at most once per diff that
// outgrows it, the outgrown buffer going back to the list at once. A
// bounded pull hands it back when the span is sent; a follow pull after
// each wake, before it waits for the next, so a stalled follower costs
// one goroutine and at most that one buffer. The read scratch is the
// stream's own.

package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// pullBuf is the memory one span stream works in: the frame being sent,
// whose payload is the diff reassembled in place, and its CRC32C; the
// store's read scratch; and what write stages the frame's header in.
type pullBuf struct {
	frame wire.Frame
	crc   uint32
	sc    checkpoint.ReadScratch
	stage []byte
	vec   net.Buffers
}

// servePull serves one TPull request and reports whether the connection
// goes on serving requests: after a bounded pull, or a refused one,
// yes; after an accepted follow pull or a failed write, no.
func (s *Server) servePull(ctx context.Context, stop <-chan struct{}, conn net.Conn,
	br *bufio.Reader, bw *bufio.Writer, req *wire.Frame) bool {
	caddr := conn.RemoteAddr().String()
	// respond ends a bounded or refused pull with one non-OK frame.
	respond := func(ck uint32, err error) bool {
		f := s.errFrame(req, err)
		f.Lineage, f.Ckpt = req.Lineage, ck
		if err := s.writeResp(bw, conn, f); err != nil {
			s.cfg.Logf("server: %s: %v", caddr, err)
			return false
		}
		return true
	}
	ln, span, sub, err := s.openPull(req)
	if err != nil {
		return respond(req.Ckpt, err)
	}
	follow := sub != nil
	// over reports whether a follow stream is to end now: the server is
	// stopping or the reader is gone.
	over := func() bool { return false }
	var readerGone chan struct{}
	if follow {
		defer s.hub.unregister(ln, sub)
		// Watchdog: a follower sends nothing more, so any byte — or EOF,
		// or a reset — means the stream is over. The read goes through br
		// (a pipelined byte could already sit there). The deferred
		// conn.Close unblocks it; the WaitGroup joins the goroutine
		// before return (ckptlint goroleak).
		conn.SetReadDeadline(time.Time{})
		readerGone = make(chan struct{})
		var wg sync.WaitGroup
		defer wg.Wait()
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(readerGone)
			_, _ = br.ReadByte()
		}()
		over = func() bool {
			select {
			case <-stop:
			case <-ctx.Done():
			case <-readerGone:
			default:
				return false
			}
			return true
		}
	}
	// The frames go to the socket past bw, so what bw holds goes first.
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if err := bw.Flush(); err != nil {
		s.cfg.Logf("server: %s: flush: %v", caddr, err)
		return false
	}

	var pb pullBuf
	next, _ := span.Bounds()
	// send writes the frames of [next, to) of span, in a frame buffer
	// that is the free list's for the length of the call. It returns
	// false once the connection is done — a write failed, or the stream
	// is over — and otherwise the error of the read that stopped it
	// short, if any.
	send := func(to int) (bool, error) {
		if next == to {
			return true, nil
		}
		pb.frame.Payload = s.frames.largest()
		defer func() {
			s.frames.put(pb.frame.Payload)
			pb.frame.Payload = nil
		}()
		for ; next < to; next++ {
			if over() {
				return false, nil
			}
			if err := pb.load(span, next, &s.frames); err != nil {
				return true, err
			}
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			n, err := pb.write(conn, req.Lineage)
			if err != nil {
				if !wire.IsClean(err) {
					s.cfg.Logf("server: %s: pull write: %v", caddr, err)
				}
				return false, nil
			}
			s.bytesOut.Add(n)
			if follow {
				s.tailFrames.Add(1)
			}
		}
		return true, nil
	}

	// The span as taken first, then, for a follow pull, after each
	// wake, the span followed to the lineage's length: changes after
	// the registration are announced by a wake, so a pass never races
	// a commit that has not announced itself yet.
	_, to := span.Bounds()
	ok, err := send(to)
	for follow && ok && err == nil {
		select {
		case <-sub:
		case <-stop:
		case <-ctx.Done():
		case <-readerGone:
		}
		if over() {
			return false
		}
		if span, err = span.Follow(); err == nil {
			_, to = span.Bounds()
			ok, err = send(to)
		}
	}
	switch {
	case !ok:
		return false
	case err == nil: // a bounded pull sent its span
		return true
	case !follow:
		return respond(uint32(next), fmt.Errorf("server: pull lineage %q: %w", ln.name, err))
	case errors.Is(err, checkpoint.ErrSpanMoved):
		s.foldEnds.Add(1)
	default:
		s.cfg.Logf("server: %s: follow pull of lineage %q: %v", caddr, ln.name, err)
	}
	return false
}

// openPull resolves a TPull request to the span it serves. Only the
// snapshot is taken under the lineage lock. A follow pull also has its
// cursor checked and its subscriber registered under it, so the
// registration is a consistent cut: every change to the lineage from
// then on is either in the store or followed by a wake. The cursor
// continues the lineage when it names the same baseline and a next
// within [base, Len], and — when the follower already holds diffs — the
// CRC of its last one matches the stored copy.
func (s *Server) openPull(req *wire.Frame) (ln *lineage, span checkpoint.Span, sub chan struct{}, err error) {
	if ln, err = s.get(req.Lineage); err != nil {
		return nil, span, nil, err
	}
	p, err := wire.DecodePull(req.Ckpt, req.Payload)
	if err != nil {
		return nil, span, nil, fmt.Errorf("server: pull lineage %q: %w", ln.name, err)
	}
	release, err := ln.acquire()
	if err != nil {
		return nil, span, nil, err
	}
	defer release()
	if !p.Follow() {
		if span, err = ln.store.Span(int(p.From), int(p.To)); err != nil {
			return nil, span, nil, fmt.Errorf("server: pull lineage %q: %w", ln.name, err)
		}
		return ln, span, nil, nil
	}
	base, n := ln.store.Base(), ln.store.Len()
	if p.Base != uint32(base) || int64(p.From) > int64(n) || (p.From > p.Base && !ln.holds(int(p.From)-1, p.CRC)) {
		return nil, span, nil, fmt.Errorf("%w: cursor {base %d, next %d} does not continue [%d,%d)",
			checkpoint.ErrSpanMoved, p.Base, p.From, base, n)
	}
	if span, err = ln.store.Tail(int(p.From)); err != nil {
		return nil, span, nil, err
	}
	s.subscribes.Add(1)
	return ln, span, s.hub.register(ln), nil
}

// write sends pb.frame on handle h as a TPull/StatusOK frame: header and
// CRC32C prefix (pb.crc, which load took from the read) staged in
// pb.stage, the diff handed to writev untouched. It returns the frame's
// wire size.
func (pb *pullBuf) write(w io.Writer, h uint32) (uint64, error) {
	encoded := pb.frame.Payload
	n := wire.PushChecksumSize + len(encoded)
	stage, err := wire.AppendFrameHeader(pb.stage[:0], wire.TPull, wire.StatusOK, h, pb.frame.Ckpt, n)
	if err != nil {
		return 0, err
	}
	pb.stage = binary.BigEndian.AppendUint32(stage, pb.crc)
	pb.vec = append(pb.vec[:0], pb.stage, encoded)
	saved := pb.vec // WriteFrameVec consumes vec; keep its backing array
	err = wire.WriteFrameVec(w, &pb.vec)
	pb.vec = saved[:0]
	return uint64(wire.HeaderSize + n), err
}

// load makes pb.frame the frame that carries checkpoint ck of span,
// complete and verified, and pb.crc its CRC32C. A buffer the diff
// outgrows goes back to frames.
func (pb *pullBuf) load(span checkpoint.Span, ck int, frames *frameMem) error {
	out, crc, err := span.AppendDiff(pb.frame.Payload[:0], ck, &pb.sc)
	if err != nil {
		return err
	}
	if cap(out) != cap(pb.frame.Payload) {
		frames.put(pb.frame.Payload)
	}
	pb.frame.Ckpt, pb.frame.Payload, pb.crc = uint32(ck), out, crc
	return nil
}
