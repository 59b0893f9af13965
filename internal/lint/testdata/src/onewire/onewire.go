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

func goodWaived(nc net.Conn) error {
	return wire.Handshake(nc) //ckptlint:ignore onewire deliberate exception with a reason
}
