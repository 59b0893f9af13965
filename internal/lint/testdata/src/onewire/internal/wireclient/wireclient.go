// Package wireclient stands in for the one package allowed to dial and
// handshake: nothing here may be reported.
package wireclient

import (
	"net"

	"example.com/internal/wire"
)

func dial(nc net.Conn) error {
	return wire.Handshake(nc)
}

func pull(nc net.Conn) error {
	return wire.WriteFrame(nc, &wire.Frame{Type: wire.TPull, Lineage: 1, Ckpt: 3})
}
