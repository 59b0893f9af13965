// The v7 TPull serving path: one request names the span [from, to), the
// server answers with one frame per checkpoint.
//
// Protocol contract (DESIGN.md §13): the span is validated against one
// snapshot of the lineage, taken under the lineage lock, which is
// released before any block is fetched or any byte is written — a
// stream to a slow reader holds up no push. Each diff is reassembled
// and verified in full before its first byte is sent, so damage (and a
// fold that replaces the lineage mid-stream) is a typed non-OK frame
// that ends the stream with the connection back in request mode; the
// frames before it stay good.
//
// Memory: the frame a stream reassembles its diffs in is the largest
// buffer on the server's free list (frames.go), grown at most once per
// diff that outgrows it, the outgrown buffer going back to the list at
// once, and handed back when the stream ends. So a server that has
// served a frame that size serves the next span without allocating for
// its frames, GCs in between or not. The read scratch (reference lists
// and one run of at most 256 KiB) is the stream's own.

package server

import (
	"bufio"
	"fmt"
	"net"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// pullBuf is the memory one span stream works in: the frame being sent,
// whose payload is the diff reassembled in place, and the store's read
// scratch.
type pullBuf struct {
	frame wire.Frame
	sc    checkpoint.ReadScratch
}

// servePull handles one TPull request. The returned error is
// transport-only (a frame could not be written, the connection is
// done); everything else travels as a non-OK frame.
func (s *Server) servePull(req *wire.Frame, bw *bufio.Writer, conn net.Conn) error {
	name, span, err := s.openPull(req)
	if err != nil {
		return s.writeResp(bw, conn, s.errFrame(req, err))
	}
	// writeResp copies the frame out before it returns, so the payload
	// is free again once the stream ends.
	pb := &pullBuf{frame: wire.Frame{Type: req.Type, Status: wire.StatusOK, Lineage: req.Lineage, Payload: s.frames.largest()}}
	defer func() { s.frames.put(pb.frame.Payload) }()
	for ck, to := span.Bounds(); ck < to; ck++ {
		if err := pb.load(span, ck, &s.frames); err != nil {
			f := s.errFrame(req, fmt.Errorf("server: pull lineage %q: %w", name, err))
			f.Lineage, f.Ckpt = req.Lineage, uint32(ck)
			return s.writeResp(bw, conn, f)
		}
		if err := s.writeResp(bw, conn, &pb.frame); err != nil {
			return err
		}
	}
	return nil
}

// openPull resolves a TPull request to a span of its lineage. Only the
// snapshot is taken under the lineage lock.
func (s *Server) openPull(req *wire.Frame) (name string, span checkpoint.Span, err error) {
	ln, err := s.get(req.Lineage)
	if err != nil {
		return "", span, err
	}
	to, err := wire.DecodePullSpan(req.Payload)
	if err != nil {
		return "", span, fmt.Errorf("server: pull lineage %q: %w", ln.name, err)
	}
	release, err := ln.acquire()
	if err != nil {
		return "", span, err
	}
	span, err = ln.store.Span(int(req.Ckpt), int(to))
	release()
	if err != nil {
		return "", span, fmt.Errorf("server: pull lineage %q: %w", ln.name, err)
	}
	return ln.name, span, nil
}

// load makes pb.frame the frame that carries checkpoint ck of span,
// complete and verified. A buffer the diff outgrows goes back to frames.
func (pb *pullBuf) load(span checkpoint.Span, ck int, frames *frameMem) error {
	out, err := span.AppendDiff(pb.frame.Payload[:0], ck, &pb.sc)
	if err != nil {
		return err
	}
	if cap(out) != cap(pb.frame.Payload) {
		frames.put(pb.frame.Payload)
	}
	pb.frame.Ckpt, pb.frame.Payload = uint32(ck), out
	return nil
}
