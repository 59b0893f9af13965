// Package bufreuse is a golden fixture for the bufreuse check.
package bufreuse

import (
	"io"
	"net"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// conn models the per-connection session the real client keeps: its
// buffers persist across frames, which is what the check demands.
type conn struct {
	stage   []byte
	vec     net.Buffers
	resp    wire.Frame
	scratch []byte
	spare   [][]byte
}

// goodFieldBuffers stages every frame out of the session's persistent
// buffers: nothing is re-created per iteration.
func (c *conn) goodFieldBuffers(w io.Writer, r io.Reader, frames int) error {
	for k := 0; k < frames; k++ {
		stage, err := wire.AppendFrameHeader(c.stage[:0], 1, 0, 1, uint32(k), 0)
		if err != nil {
			return err
		}
		c.stage = stage
		c.vec = append(c.vec[:0], stage)
		if err := wire.WriteFrameVec(w, &c.vec); err != nil {
			return err
		}
		if err := wire.ReadFrameInto(r, 0, &c.resp, &c.scratch); err != nil {
			return err
		}
		c.spare = c.spare[:0]
		if err := wire.ReadFrameSpare(r, 0, &c.resp, &c.scratch, &c.spare); err != nil {
			return err
		}
	}
	return nil
}

// goodHoistedLocals declares the buffers once, before the loop: they
// persist across iterations, so reuse works.
func goodHoistedLocals(w io.Writer, r io.Reader, frames int) error {
	var stage []byte
	var vec net.Buffers
	var resp wire.Frame
	var scratch []byte
	for k := 0; k < frames; k++ {
		var err error
		stage, err = wire.AppendFrameHeader(stage[:0], 1, 0, 1, uint32(k), 0)
		if err != nil {
			return err
		}
		vec = append(vec[:0], stage)
		if err := wire.WriteFrameVec(w, &vec); err != nil {
			return err
		}
		if err := wire.ReadFrameInto(r, 0, &resp, &scratch); err != nil {
			return err
		}
	}
	return nil
}

// goodSingleShot stages one frame outside any loop: nothing to reuse,
// nothing to flag.
func goodSingleShot(w io.Writer) error {
	var vec net.Buffers
	buf, err := wire.AppendFrameHeader(nil, 1, 0, 1, 0, 0)
	if err != nil {
		return err
	}
	vec = append(vec, buf)
	return wire.WriteFrameVec(w, &vec)
}

// badLoopLocals re-creates every buffer on every iteration — each
// call allocates per frame, defeating the reusable API.
func badLoopLocals(w io.Writer, r io.Reader, frames int) error {
	for k := 0; k < frames; k++ {
		buf := make([]byte, 0, 64)
		stage, err := wire.AppendFrameHeader(buf, 1, 0, 1, uint32(k), 0) // want:bufreuse
		if err != nil {
			return err
		}
		vec := net.Buffers{stage}
		if err := wire.WriteFrameVec(w, &vec); err != nil { // want:bufreuse
			return err
		}
		var resp wire.Frame
		var scratch []byte
		if err := wire.ReadFrameInto(r, 0, &resp, &scratch); err != nil { // want:bufreuse (twice: frame and scratch)
			return err
		}
	}
	return nil
}

// badInlineFresh passes freshly built values directly in the argument
// position inside a range loop.
func badInlineFresh(w io.Writer, frames []uint32) error {
	for _, k := range frames {
		stage, err := wire.AppendFrameHeader(make([]byte, 0, 64), 1, 0, 1, k, 0) // want:bufreuse
		if err != nil {
			return err
		}
		if err := wire.WriteFrameVec(w, &net.Buffers{stage}); err != nil { // want:bufreuse
			return err
		}
	}
	return nil
}

// badNilScratch grows a fresh payload buffer per frame by passing nil.
func badNilScratch(r io.Reader, frames int) error {
	var resp wire.Frame
	for k := 0; k < frames; k++ {
		_ = k
		if err := wire.ReadFrameInto(r, 0, &resp, nil); err != nil { // want:bufreuse
			return err
		}
	}
	return nil
}

// badLoopSpare keeps the frame buffers but collects outgrown ones into
// a list re-created per frame: the list's backing array is allocated
// again on every iteration that outgrows anything.
func badLoopSpare(r io.Reader, frames int) error {
	var resp wire.Frame
	var scratch []byte
	for k := 0; k < frames; k++ {
		_ = k
		var spare [][]byte
		if err := wire.ReadFrameSpare(r, 0, &resp, &scratch, &spare); err != nil { // want:bufreuse
			return err
		}
	}
	return nil
}

// waived shows the escape hatch: a reviewed per-iteration buffer.
func waived(w io.Writer, frames int) error {
	for k := 0; k < frames; k++ {
		vec := net.Buffers{[]byte{byte(k)}}
		//ckptlint:ignore bufreuse fixture demonstrates the waiver syntax
		if err := wire.WriteFrameVec(w, &vec); err != nil {
			return err
		}
	}
	return nil
}
