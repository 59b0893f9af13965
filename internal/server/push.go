// The push intake: how a pushed diff becomes a committed lineage entry
// — written once. TPush and TPushStream differ only in how many checked
// diffs reach commit together and in the frame that answers them:
//
//	check    no lock        handle → CRC → decode → id agreement
//	commit   lineage lock   replay/conflict → AppendBatch
//	         no lock        staging back to the free list → wake subscribers
//	ack                     a TPush response, or one StreamAck a frame
//
// The copy rule: a checked diff aliases the payload it was decoded
// from — every section, region lists included — and a payload lives in
// the connection's read buffer, which the next read overwrites. A stream
// frame that is staged outlives that, so the connection hands the buffer
// over: it becomes the frame's staging, and the connection takes its
// next read buffer from the server's free list (frames.go). No byte is
// copied. AppendBatch writes the diff's sections from there by reference
// and neither it nor the block store keeps a slice of a diff, so the
// staging goes back to the list as soon as the run's append returns;
// only then are the lineage's subscribers woken, and each reads what it
// sends back from the store — into a buffer from the same list, which
// can be the one the run just gave back. A diff that commits within its
// own request is never staged.

package server

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// pushed is one diff that passed check.
type pushed struct {
	diff *checkpoint.Diff
	crc  uint32 // of the encoded diff, as the pusher computed it
	// staging is the read buffer the frame arrived in, handed over to
	// the run, which diff aliases; nil while the connection still reads
	// into it.
	staging []byte
}

// stagedRun is one connection's run of contiguous TPushStream frames
// awaiting a group commit: checked diffs of a single lineage, starting
// at the lineage's length when the first was staged. Only frames that
// arrived back-to-back are staged; the run settles the moment the
// connection would otherwise block, so staging never delays an ack the
// client is waiting on.
type stagedRun struct {
	ln     *lineage
	handle uint32 // wire handle, echoed in the acks
	start  uint32 // checkpoint id of batch[0]
	batch  []pushed
	bytes  int64 // capacity of the batch's staging
}

// Caps on a single group commit: a run holds at most streamBatchFrames
// diffs or streamBatchBytes of staging capacity, whichever trips first,
// bounding both ack latency and the memory a fast pusher can pin on the
// server. Capacity, not payload: a frame read into a larger recycled
// buffer pins all of it.
const (
	streamBatchFrames = 64
	streamBatchBytes  = 16 << 20
)

// extendedBy reports whether checkpoint ckpt of ln is the next frame of
// the run — or, for an empty run, the lineage's next id, which starts
// one. A nil run (TPush) stages nothing.
func (r *stagedRun) extendedBy(ln *lineage, ckpt uint32) bool {
	if r == nil {
		return false
	}
	if len(r.batch) > 0 {
		return ln == r.ln && ckpt == r.start+uint32(len(r.batch))
	}
	return int(ckpt) == ln.store.Len()
}

// check is the lock-free half of the intake. It resolves the handle,
// verifies the payload's CRC32C — the bytes survived the wire —
// decode-validates the diff before the store sees it (a malformed diff
// must never become a lineage record) and holds the frame to the id it
// names. A frame that extends run is staged where it lies: *scratch,
// the read buffer req.Payload was read into, becomes its staging, and
// the connection reads on into a buffer from the free list, sized for
// another frame like this one.
func (s *Server) check(req *wire.Frame, run *stagedRun, scratch *[]byte) (*lineage, pushed, error) {
	ln, err := s.get(req.Lineage)
	if err != nil {
		return nil, pushed{}, err
	}
	crc, encoded, err := wire.DecodePush(req.Payload)
	if err != nil {
		return nil, pushed{}, fmt.Errorf("server: push lineage %q: %w", ln.name, err)
	}
	p := pushed{crc: crc}
	if p.diff, err = checkpoint.DecodeBytes(encoded); err != nil {
		return nil, pushed{}, fmt.Errorf("server: push lineage %q: %w", ln.name, err)
	}
	if p.diff.CkptID != req.Ckpt {
		return nil, pushed{}, fmt.Errorf("server: push frame ckpt %d but diff id %d", req.Ckpt, p.diff.CkptID)
	}
	if run.extendedBy(ln, req.Ckpt) {
		p.staging, *scratch = *scratch, s.frames.get(len(req.Payload))
	}
	return ln, p, nil
}

// unstage hands p's staging, if it has any, back to the free list; p's
// diff aliases it, so p is dead after the call.
func (s *Server) unstage(p pushed) {
	s.frames.put(p.staging)
}

// commit makes batch, whose ids run from start, durable with one store
// append, or none of it. Either way the batch is dead after the call:
// its staging goes back to the free list, and only then are the
// lineage's subscribers woken. It returns the lineage length the commit
// left. A saturated lineage sheds the batch with wire.ErrBusy.
func (s *Server) commit(ln *lineage, start uint32, batch []pushed) (uint32, error) {
	n, err := s.appendBatch(ln, start, batch)
	for _, p := range batch {
		s.unstage(p)
	}
	if err == nil {
		s.hub.wake(ln)
	}
	return n, err
}

// appendBatch is commit's store append, under the lineage lock.
func (s *Server) appendBatch(ln *lineage, start uint32, batch []pushed) (uint32, error) {
	release, err := ln.acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	// Idempotent replay: if this id is already stored, a retried push
	// whose content hash matches the stored bytes is the same write
	// arriving twice (the client's response was lost) — answer OK
	// without re-appending. A mismatching hash is a genuine conflict
	// with the one-winner append guarantee.
	if n := ln.store.Len(); len(batch) == 1 && int(start) < n && int(start) >= ln.store.Base() {
		if !ln.holds(int(start), batch[0].crc) {
			return 0, fmt.Errorf("server: push %d conflicts with already-stored diff (lineage %q)", start, ln.name)
		}
		if int64(n) > math.MaxUint32 {
			return 0, fmt.Errorf("server: lineage length %d does not fit the frame header", n)
		}
		return uint32(n), nil
	}
	diffs := make([]*checkpoint.Diff, len(batch))
	for i := range batch {
		diffs[i] = batch[i].diff
	}
	if _, err := ln.store.AppendBatch(diffs); err != nil {
		return 0, err
	}
	return start + uint32(len(batch)), nil
}

// serveStream handles one TPushStream frame: it joins the connection's
// staged run, or the run settles and the frame commits alone — a
// replay, a conflict, another lineage, a stale handle, a malformed
// payload — so its ack carries the precise typed outcome. Every outcome
// is an ack on the same connection: a failed frame must not tear the
// stream, because the client has a window of later frames in flight
// behind it. req.Payload lies in *scratch, the connection's read
// buffer, which a staged frame takes over (check). The returned error is
// transport-only.
func (s *Server) serveStream(run *stagedRun, req *wire.Frame, scratch *[]byte, bw *bufio.Writer, conn net.Conn) error {
	s.streamPushes.Add(1)
	ln, p, err := s.check(req, run, scratch)
	if err == nil && p.staging != nil {
		if len(run.batch) == 0 {
			run.ln, run.handle, run.start = ln, req.Lineage, req.Ckpt
		}
		run.batch = append(run.batch, p)
		run.bytes += int64(cap(p.staging))
		if len(run.batch) < streamBatchFrames && run.bytes < streamBatchBytes {
			return nil
		}
		return s.settle(run, bw, conn)
	}
	if serr := s.settle(run, bw, conn); serr != nil {
		return serr
	}
	var newLen uint32
	if err == nil {
		newLen, err = s.commit(ln, req.Ckpt, []pushed{p})
	}
	return s.ackStream(bw, conn, req.Lineage, req.Ckpt, 1, newLen, err)
}

// settle commits the staged run and acks every frame of it. The run
// commits as a whole or not at all: a store failure fails every staged
// frame with a typed error ack, and the client's retry resumes from the
// length the server reports. Either way commit returns the run's
// staging. The returned error is transport-only; store errors travel
// inside the acks.
func (s *Server) settle(run *stagedRun, bw *bufio.Writer, conn net.Conn) error {
	if len(run.batch) == 0 {
		return nil
	}
	newLen, err := s.commit(run.ln, run.start, run.batch)
	handle, start, count := run.handle, run.start, len(run.batch)
	*run = stagedRun{}
	return s.ackStream(bw, conn, handle, start, count, newLen, err)
}

// drop empties run and returns its staging, uncommitted: a connection
// that tears mid-run drops it.
func (s *Server) drop(run *stagedRun) {
	for _, p := range run.batch {
		s.unstage(p)
	}
	*run = stagedRun{}
}

// ackStream writes the StreamAck of each of the count frames from start
// that one commit settled. newLen is the length that commit left; the
// frames landed together, but each ack reports the length as of its own
// frame.
func (s *Server) ackStream(bw *bufio.Writer, conn net.Conn, handle, start uint32, count int, newLen uint32, err error) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	for i := 0; i < count; i++ {
		resp := s.streamAckFrame(handle, start+uint32(i), newLen-uint32(count-1-i), err)
		if werr := wire.WriteFrame(bw, resp); werr != nil {
			return fmt.Errorf("stream ack write: %w", werr)
		}
		s.bytesOut.Add(uint64(resp.WireSize()))
	}
	return nil
}

// streamAckFrame builds the StreamAck response frame for one stream
// push outcome, err mapped onto the status byte exactly as errFrame
// does for request/response.
func (s *Server) streamAckFrame(handle, ckpt, newLen uint32, err error) *wire.Frame {
	ack := wire.StreamAck{Ckpt: ckpt, NewLen: newLen}
	status := statusOf(err)
	if err != nil {
		ack.NewLen, ack.Msg = 0, err.Error()
		if status == wire.StatusBusy {
			s.busyRejects.Add(1)
			ack.RetryAfterMs, ack.Msg = s.retryAfterMs(), "server busy"
		}
	}
	payload, perr := wire.AppendStreamAck(nil, &ack)
	if perr != nil { // error message beyond the format limit: truncate it
		ack.Msg = ack.Msg[:math.MaxUint16]
		payload, _ = wire.AppendStreamAck(nil, &ack)
	}
	return &wire.Frame{Type: wire.TPushStream, Status: status,
		Lineage: handle, Ckpt: ckpt, Payload: payload}
}

// retryAfterMs clamps the configured busy backoff hint to the
// StreamAck millisecond field.
func (s *Server) retryAfterMs() uint32 {
	ms := s.cfg.RetryAfterHint.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	return uint32(ms)
}
