// The push intake: how a pushed diff becomes a committed lineage entry
// — written once. TPush and TPushStream differ only in how many diffs
// reach a settle together and in the frame that answers them:
//
//	read     no lock        handle → CRC prefix → header, region lists and
//	                        bitmap into the run → data section from the
//	                        socket into the block store, pinned → CRC and
//	                        id checks → staged
//	settle   lineage lock   AppendInterned: one pack fsync, then one
//	                        segment append and fsync
//	         no lock        wake subscribers → unpin
//	ack                     a TPush response, or one StreamAck a frame
//
// The payload is never read whole. checkpoint.ReadStream parses the
// diff as it arrives: the header and the region lists and bitmap go
// into memory the run owns, and the data section goes from the
// connection's bufio.Reader to the block store a piece at a time, cut
// where blockstore.Split cuts, so the blocks are those a whole-diff
// intern makes and cross-lineage dedup is unchanged. The CRC32C is
// folded on the way. Only a diff that passes the CRC and id checks
// stages its record; one that fails has written at most orphan blocks,
// which the next GC reclaims. The blocks a run has written stay pinned
// until it settles or drops, so a GC between the two takes none of them.
// A frame whose id the lineage holds already is a replay or a conflict:
// it interns nothing, and its CRC is compared with the stored diff's.

package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// stagedRun is one connection's run of diffs awaiting a settle:
// checked diffs of a single lineage, starting at the lineage's length
// when the first was staged, answered as frames of type typ. Stream
// frames that arrive back-to-back join one run, which settles the
// moment the connection would otherwise wait for input, so staging
// never delays an ack the client is waiting on; a TPush is a run of
// one. Its memory is the connection's and is reused run after run.
type stagedRun struct {
	ln     *lineage
	handle uint32 // wire handle, echoed in the acks
	start  uint32 // checkpoint id of diffs[0]
	crc    uint32 // of diffs[0], as the pusher computed it
	typ    uint8
	// diffs are the staged diffs, their sections aliasing meta, and
	// counts[i] how many of pin's references, back to back, are
	// diffs[i]'s blocks. ptrs is settle's view of diffs.
	diffs  []checkpoint.Diff
	counts []int
	pin    blockstore.Pin
	meta   []byte
	ptrs   []*checkpoint.Diff
	chunks [][]byte // the blocks of the piece being interned
	// write interns a piece of a data section into pin: made once per
	// connection, so no frame allocates for it.
	write func([]byte) error
	acks  []byte // the encoded stream acks of one settle
}

// Caps on a single settle: a run holds at most streamBatchFrames diffs
// or streamBatchBytes of region lists and bitmaps, whichever trips
// first, bounding both ack latency and the memory a fast pusher can pin
// on the server.
const (
	streamBatchFrames = 64
	streamBatchBytes  = 16 << 20
)

// extendedBy reports whether checkpoint ckpt of ln can join the run:
// the run is empty, or ckpt is its next frame.
func (r *stagedRun) extendedBy(ln *lineage, ckpt uint32) bool {
	return len(r.diffs) == 0 || ln == r.ln && ckpt == r.start+uint32(len(r.diffs))
}

// full reports whether the run has reached a cap.
func (r *stagedRun) full() bool {
	return len(r.diffs) >= streamBatchFrames || len(r.meta) >= streamBatchBytes
}

// truncate drops what the run staged past its first diffs diffs, refs
// references, which it unpins, and meta bytes of region lists.
func (s *Server) truncate(r *stagedRun, diffs, refs, meta int) {
	s.blocks.Unpin(&r.pin, refs)
	clear(r.diffs[diffs:])
	r.diffs, r.counts, r.meta = r.diffs[:diffs], r.counts[:min(diffs, len(r.counts))], r.meta[:meta]
}

// intake reads push frame req, whose n payload bytes are still on br,
// and stages its diff in run, or answers it once the run has settled,
// so acks keep frame order. A run the frame does not extend settles
// before the frame is read. Every outcome of the frame is an ack on the same connection:
// a failed frame must not tear the stream, because the client has a
// window of later frames in flight behind it. The returned error is
// transport-only.
func (s *Server) intake(run *stagedRun, req *wire.Frame, n uint32, br *bufio.Reader, bw *bufio.Writer, conn net.Conn) error {
	if req.Type == wire.TPushStream {
		s.streamPushes.Add(1)
	}
	ln, err := s.get(req.Lineage)
	if err != nil || !run.extendedBy(ln, req.Ckpt) {
		if serr := s.settle(run, bw, conn); serr != nil {
			return serr
		}
	}
	staged, crc, err, terr := s.readPush(run, ln, err, req, n, br)
	if terr != nil {
		return terr
	}
	if staged {
		if req.Type == wire.TPush || run.full() {
			return s.settle(run, bw, conn)
		}
		return nil
	}
	if serr := s.settle(run, bw, conn); serr != nil { // its ack follows theirs
		return serr
	}
	var newLen uint32
	if err == nil {
		newLen, err = s.replay(ln, req.Ckpt, crc)
	}
	return s.ack(run, bw, conn, req.Type, req.Lineage, req.Ckpt, 1, newLen, err)
}

// readPush consumes the payload of push frame req and stages its diff
// in run if it passes every check and its id is not stored yet: staged
// reports that. Otherwise err says why the frame fails, or is nil for a
// diff that passed the checks with an id the lineage holds — a replay
// to answer, whose CRC is crc. lerr is the lookup error of the frame's
// handle. terr is a transport failure.
func (s *Server) readPush(run *stagedRun, ln *lineage, lerr error, req *wire.Frame, n uint32, br *bufio.Reader) (staged bool, crc uint32, err, terr error) {
	if n < wire.PushChecksumSize {
		if _, terr := br.Discard(int(n)); terr != nil {
			return false, 0, nil, terr
		}
		if lerr != nil {
			return false, 0, lerr, nil
		}
		return false, 0, fmt.Errorf("wire: push payload %d bytes, want at least %d", n, wire.PushChecksumSize), nil
	}
	prefix, terr := br.Peek(wire.PushChecksumSize)
	if terr != nil {
		return false, 0, nil, terr
	}
	declared := binary.BigEndian.Uint32(prefix)
	br.Discard(wire.PushChecksumSize)

	// Only a diff that may extend the lineage interns its blocks; the
	// lineage's length may still move before the settle, which checks
	// it again. A TPush does not read the length here, where a fold may
	// hold the store: it is a run of one, whose settle tells a replay
	// from an append under the lineage lock.
	intern := lerr == nil && (req.Type == wire.TPush || int(req.Ckpt) >= ln.store.Len())
	diffs, refs, meta := len(run.diffs), len(run.pin.Refs), len(run.meta)
	run.diffs = append(run.diffs, checkpoint.Diff{})
	d := &run.diffs[diffs]
	var data func([]byte) error
	if intern {
		if run.write == nil {
			run.write = func(p []byte) error {
				run.chunks = blockstore.AppendSplit(run.chunks[:0], p)
				return s.blocks.Write(&run.pin, run.chunks)
			}
		}
		data = run.write
	}
	run.meta, crc, err, terr = checkpoint.ReadStream(br, int64(n)-wire.PushChecksumSize, d, run.meta, blockstore.BlockSize, data)
	clear(run.chunks)
	switch {
	case terr != nil:
	case lerr != nil:
		err = lerr
	case wire.CheckPush(declared, crc) != nil:
		err = fmt.Errorf("server: push lineage %q: %w", ln.name, wire.CheckPush(declared, crc))
	case err != nil:
		err = fmt.Errorf("server: push lineage %q: %w", ln.name, err)
	case d.CkptID != req.Ckpt:
		err = fmt.Errorf("server: push frame ckpt %d but diff id %d", req.Ckpt, d.CkptID)
	}
	if err != nil || terr != nil || !intern {
		s.truncate(run, diffs, refs, meta)
		return false, crc, err, terr
	}
	if diffs == 0 {
		run.ln, run.handle, run.start, run.typ, run.crc = ln, req.Lineage, req.Ckpt, req.Type, crc
	}
	run.counts = append(run.counts, len(run.pin.Refs)-refs)
	return true, crc, nil, nil
}

// replay answers a push of checkpoint ck, an id the lineage holds
// already: a retried push whose content hash matches the stored bytes
// is the same write arriving twice (the client's response was lost) —
// answer OK with the lineage length, appending nothing. A mismatching
// hash is a genuine conflict with the one-winner append guarantee. A
// saturated lineage sheds it with wire.ErrBusy.
func (s *Server) replay(ln *lineage, ck, crc uint32) (uint32, error) {
	release, err := ln.acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	return s.replayLocked(ln, ck, crc)
}

// replayLocked is replay under the lineage lock.
func (s *Server) replayLocked(ln *lineage, ck, crc uint32) (uint32, error) {
	n := ln.store.Len()
	switch {
	case int(ck) < ln.store.Base():
		return 0, fmt.Errorf("server: push %d is below lineage %q's baseline %d", ck, ln.name, ln.store.Base())
	case !ln.holds(int(ck), crc):
		return 0, fmt.Errorf("server: push %d conflicts with already-stored diff (lineage %q)", ck, ln.name)
	case int64(n) > math.MaxUint32:
		return 0, fmt.Errorf("server: lineage length %d does not fit the frame header", n)
	}
	return uint32(n), nil
}

// settle commits the staged run and acks every frame of it. The run
// commits as a whole or not at all: a store failure fails every staged
// frame with a typed error ack, and the client's retry resumes from the
// length the server reports. Either way the run's pins are released.
// The returned error is transport-only; store errors travel inside the
// acks.
func (s *Server) settle(run *stagedRun, bw *bufio.Writer, conn net.Conn) error {
	if len(run.diffs) == 0 {
		return nil
	}
	newLen, err := s.commit(run)
	typ, handle, start, count := run.typ, run.handle, run.start, len(run.diffs)
	s.drop(run)
	return s.ack(run, bw, conn, typ, handle, start, count, newLen, err)
}

// commit makes the run durable with one FileStore.AppendInterned under
// the lineage lock, or none of it — a run of one whose id the lineage
// holds by then is a replay instead — then releases its pins and, if it
// appended, wakes the lineage's subscribers. It returns the lineage
// length the commit left. A saturated lineage sheds the run with
// wire.ErrBusy.
func (s *Server) commit(run *stagedRun) (newLen uint32, err error) {
	release, err := run.ln.acquire()
	appended := false
	if err == nil {
		if len(run.diffs) == 1 && int(run.start) < run.ln.store.Len() {
			newLen, err = s.replayLocked(run.ln, run.start, run.crc)
		} else {
			run.ptrs = run.ptrs[:0]
			for i := range run.diffs {
				run.ptrs = append(run.ptrs, &run.diffs[i])
			}
			_, err = run.ln.store.AppendInterned(run.ptrs, run.pin.Refs, run.counts)
			clear(run.ptrs)
			newLen, appended = run.start+uint32(len(run.diffs)), err == nil
		}
		release()
	}
	if err != nil {
		return 0, err
	}
	if appended {
		s.hub.wake(run.ln)
	}
	return newLen, nil
}

// drop empties run, uncommitted, and releases its pins: a connection
// that tears mid-run drops it, and settle drops a run once committed.
func (s *Server) drop(run *stagedRun) {
	s.truncate(run, 0, 0, 0)
	run.ln = nil
}

// ack answers the count frames from start that one outcome settled: a
// TPush response, or one StreamAck a frame, encoded in run's memory.
// newLen is the length the commit left; the frames landed together,
// but each StreamAck reports the length as of its own frame.
func (s *Server) ack(run *stagedRun, bw *bufio.Writer, conn net.Conn, typ uint8, handle, start uint32, count int, newLen uint32, err error) error {
	if typ == wire.TPush {
		resp := &wire.Frame{Type: wire.TPush, Lineage: handle, Ckpt: newLen}
		if err != nil {
			resp = s.errFrame(resp, err)
		}
		return s.writeResp(bw, conn, resp)
	}
	run.acks = run.acks[:0]
	for i := 0; i < count; i++ {
		run.acks = s.appendStreamAck(run.acks, handle, start+uint32(i), newLen-uint32(count-1-i), err)
	}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, werr := bw.Write(run.acks); werr != nil {
		return fmt.Errorf("stream ack write: %w", werr)
	}
	s.bytesOut.Add(uint64(len(run.acks)))
	return nil
}

// appendStreamAck appends the StreamAck frame of one stream push
// outcome to buf, err mapped onto the status byte exactly as errFrame
// does for request/response.
func (s *Server) appendStreamAck(buf []byte, handle, ckpt, newLen uint32, err error) []byte {
	ack := wire.StreamAck{Ckpt: ckpt, NewLen: newLen}
	status := statusOf(err)
	if err != nil {
		ack.NewLen, ack.Msg = 0, err.Error()
		if status == wire.StatusBusy {
			s.busyRejects.Add(1)
			ack.RetryAfterMs, ack.Msg = s.retryAfterMs(), "server busy"
		}
	}
	at := len(buf)
	buf = append(buf, make([]byte, wire.HeaderSize)...)
	buf, perr := wire.AppendStreamAck(buf, &ack)
	if perr != nil { // error message beyond the format limit: truncate it
		ack.Msg = ack.Msg[:math.MaxUint16]
		buf, _ = wire.AppendStreamAck(buf, &ack)
	}
	wire.AppendFrameHeader(buf[at:at], wire.TPushStream, status, handle, ckpt, len(buf)-at-wire.HeaderSize)
	return buf
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
