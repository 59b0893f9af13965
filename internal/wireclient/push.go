package wireclient

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// Window bounds how much of a streamed push may be in flight (written
// but unacknowledged) at once. Both limits apply: the frame bound caps
// ack-matching state, the byte bound caps the kernel-buffer memory a
// slow server can pin on the client.
type Window struct {
	Frames int
	Bytes  int64
}

// pushWindow is a streamed push's bookkeeping on its connection; the
// bytes themselves go through the connection's one set of buffers.
type pushWindow struct {
	pending []inflight    // unacknowledged stream frames
	staged  []stagedFrame // coalesced frames staged but not yet written
}

// inflight is one streamed push frame awaiting its ack.
type inflight struct {
	ckpt uint32
	size int64 // full frame size, for the window byte budget
}

// stagedFrame is one coalesced stream frame awaiting the next writev:
// its header+checksum+diff header block ends at stage[end] (frames pack
// back-to-back, so it starts at the previous frame's end), and the
// diff's sections — region lists, bitmap, data — ride by reference.
// Offsets, not subslices, because staging the next frame may grow — and
// move — the stage buffer; the segment list is built only at flush
// time, when the buffer has settled.
type stagedFrame struct {
	end  int
	secs [4][]byte
}

// Push uploads one encoded diff as checkpoint ckpt of the lineage
// behind handle: one TPush round trip. The frame is staged zero-copy —
// the connection's reused buffer holds only [header|checksum] and
// encoded rides to the socket by reference — so a push allocates
// nothing in steady state.
func (cn *Conn) Push(handle, ckpt uint32, encoded []byte) error {
	stage, err := wire.AppendFrameHeader(cn.stage[:0], wire.TPush, 0, handle, ckpt, wire.PushChecksumSize+len(encoded))
	if err != nil {
		return err
	}
	cn.stage = binary.BigEndian.AppendUint32(stage, wire.Checksum(encoded))
	cn.vec = append(cn.vec[:0], cn.stage, encoded)
	if err := cn.writeVec(); err != nil {
		return err
	}
	return cn.recv(wire.TPush, false)
}

// streamCoalesceFrames is how many staged frames ride one writev.
// Small diffs make frame headers and syscalls the dominant per-frame
// cost; packing a run of frames into a single scatter/gather write
// amortizes both without copying any payload byte. The window still
// governs how much is in flight — coalescing only changes how many
// syscalls carry it.
const streamCoalesceFrames = 16

// StreamPush ships diffs [from, to) of the lineage behind handle as
// pipelined TPushStream frames, keeping up to w in flight and matching
// acknowledgements by checkpoint id in whatever order they return; it
// returns how many the server acknowledged OK. A per-frame error ack
// stops new sends, drains the window (frames behind the failure fail
// the server's contiguity check and ack as errors too) and surfaces the
// lowest failed frame as a *wire.StreamFrameError; a transport error
// tears the attempt and leaves resumption to the caller's retry. The
// send path allocates nothing per frame: frame headers, checksums and
// diff headers pack back-to-back into the connection's reused stage
// buffer, a diff's sections ride to the socket by reference, and up to
// streamCoalesceFrames frames leave in one writev. Anything staged is
// flushed before the stream ever waits for an ack, so coalescing cannot
// deadlock the window.
func (cn *Conn) StreamPush(handle uint32, from, to int, diffAt func(int) (*checkpoint.Diff, error), w Window) (int, error) {
	pw := &cn.push
	pw.pending = pw.pending[:0]
	pw.staged = pw.staged[:0]
	cn.stage = cn.stage[:0]
	var inFlight int64
	var frameErr error
	pushed, k := 0, from
	for {
		if len(pw.pending) > 0 && (frameErr != nil || k >= to ||
			len(pw.pending) >= w.Frames || inFlight >= w.Bytes) {
			if err := cn.flushStaged(); err != nil {
				return pushed, err // transport: the stream is torn
			}
			size, err := cn.consumeAck(&pushed, &frameErr)
			if err != nil {
				return pushed, err
			}
			inFlight -= size
			continue
		}
		if k >= to || frameErr != nil {
			return pushed, frameErr
		}
		d, err := diffAt(k)
		if err == nil {
			var size int64
			if size, err = cn.stageStreamFrame(handle, uint32(k), d); err == nil {
				pw.pending = append(pw.pending, inflight{ckpt: uint32(k), size: size})
				inFlight += size
				k++
				if len(pw.staged) >= streamCoalesceFrames {
					if err = cn.flushStaged(); err != nil {
						return pushed, err
					}
				}
				continue
			}
		}
		// Local failure producing frame k: ship what is staged so the
		// server acks it, drain the window so the connection is left
		// clean, then report it.
		if ferr := cn.flushStaged(); ferr != nil {
			return pushed, ferr
		}
		for len(pw.pending) > 0 {
			if _, derr := cn.consumeAck(&pushed, &frameErr); derr != nil {
				return pushed, derr
			}
		}
		return pushed, err
	}
}

// stageStreamFrame builds one TPushStream frame for d and coalesces
// it behind any frames already staged: [frame header | CRC32C | diff
// header] appends to the stage buffer — a few dozen bytes, whatever the
// diff holds — the region lists, bitmap and data sections are recorded
// by reference, and nothing touches the socket until flushStaged. The
// checksum over the scattered segments is computed incrementally — the
// encoded diff bytes are never gathered on the client. On error the
// stage buffer is rolled back to the previous frame boundary, so a
// half-built frame can never leak into the next flush.
func (cn *Conn) stageStreamFrame(h, ckpt uint32, d *checkpoint.Diff) (int64, error) {
	mark := len(cn.stage)
	payloadLen := int64(wire.PushChecksumSize) + d.TotalBytes()
	stage, err := wire.AppendFrameHeader(cn.stage, wire.TPushStream, 0, h, ckpt, int(payloadLen))
	if err != nil {
		return 0, err
	}
	crcOff := len(stage)
	stage = append(stage, 0, 0, 0, 0)
	hdrOff := len(stage)
	stage, err = d.AppendHeader(stage)
	if err != nil {
		cn.stage = stage[:mark]
		return 0, err
	}
	f := stagedFrame{end: len(stage), secs: [4][]byte{d.FirstOcur, d.ShiftDupl, d.Bitmap, d.Data}}
	sum := wire.ChecksumAdd(0, stage[hdrOff:])
	for _, sec := range f.secs {
		sum = wire.ChecksumAdd(sum, sec)
	}
	binary.BigEndian.PutUint32(stage[crcOff:], sum)
	cn.stage = stage
	cn.push.staged = append(cn.push.staged, f)
	return wire.HeaderSize + payloadLen, nil
}

// flushStaged ships every coalesced frame in one scatter/gather write
// and resets the staging state. The segment list is assembled here —
// not at stage time — because only now is the stage buffer done
// moving; each frame contributes its header block plus its referenced
// sections, in order. A no-op when nothing is staged.
func (cn *Conn) flushStaged() error {
	if len(cn.push.staged) == 0 {
		return nil
	}
	vec := cn.vec[:0]
	start := 0
	for i := range cn.push.staged {
		f := &cn.push.staged[i]
		vec = append(vec, cn.stage[start:f.end])
		for _, sec := range f.secs {
			if len(sec) > 0 {
				vec = append(vec, sec)
			}
		}
		start = f.end
	}
	cn.vec = vec
	err := cn.writeVec()
	cn.stage = cn.stage[:0]
	cn.push.staged = cn.push.staged[:0]
	return err
}

// consumeAck reads one stream acknowledgement and settles it against
// the pending window. An OK ack counts toward pushed; an error ack
// records the lowest-numbered failed frame in *frameErr (the root
// cause — later frames fail as contiguity collateral) and keeps
// draining. The returned size is the acknowledged frame's wire size,
// credited back to the window byte budget. Only a transport or
// protocol failure returns a non-nil error.
func (cn *Conn) consumeAck(pushed *int, frameErr *error) (int64, error) {
	if err := cn.read(false); err != nil {
		return 0, err
	}
	if err := cn.answers(wire.TPushStream); err != nil {
		return 0, err
	}
	a, err := wire.DecodeStreamAck(cn.resp.Payload)
	if err != nil {
		return 0, fmt.Errorf("wireclient: push stream ack: %w", err)
	}
	pending := cn.push.pending
	idx := -1
	for i := range pending {
		if pending[i].ckpt == a.Ckpt {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("wireclient: unsolicited stream ack for checkpoint %d", a.Ckpt)
	}
	size := pending[idx].size
	pending[idx] = pending[len(pending)-1]
	cn.push.pending = pending[:len(pending)-1]
	if ackErr := a.Err(cn.resp.Status); ackErr != nil {
		var cur *wire.StreamFrameError
		if *frameErr == nil || (errors.As(*frameErr, &cur) && a.Ckpt < cur.Ckpt) {
			*frameErr = &wire.StreamFrameError{Ckpt: a.Ckpt, Err: ackErr}
		}
		return size, nil
	}
	*pushed++
	return size, nil
}
