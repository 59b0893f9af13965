// Package onewire is a golden fixture for the onewire check. The file
// imports an internal/wire path, putting it in scope; fixtures parse
// but never build, so the import needs no real module.
package onewire

import (
	"net"

	"example.com/internal/wire"
)

func badHandshake(nc net.Conn) error {
	return wire.Handshake(nc) // want:onewire
}

func badHandRolled(nc net.Conn) error {
	if err := wire.WriteHello(nc); err != nil { // want:onewire
		return err
	}
	return wire.ReadHello(nc) // want:onewire
}

func goodFrames(nc net.Conn) error {
	// Frames are not the hello: anything may read and write them.
	return wire.WriteFrame(nc, &wire.Frame{Type: wire.TList})
}

func badPull(nc net.Conn) error {
	// A pull is answered by a stream of frames, not one: only
	// wireclient's PullSpan knows how to read it.
	return wire.WriteFrame(nc, &wire.Frame{Type: wire.TPull, Lineage: 1, Ckpt: 3}) // want:onewire
}

func goodErrorFrame(nc net.Conn, req *wire.Frame) error {
	// Echoing a request's type is how a server answers it.
	return wire.WriteFrame(nc, &wire.Frame{Type: req.Type, Status: wire.StatusErr})
}

func goodPositional(nc net.Conn) error {
	// An unkeyed literal has no Type key to inspect.
	return wire.WriteFrame(nc, &wire.Frame{wire.TList, wire.StatusOK, 0, 0, nil})
}

func goodWaived(nc net.Conn) error {
	return wire.Handshake(nc) //ckptlint:ignore onewire deliberate exception with a reason
}
