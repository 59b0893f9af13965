//go:build unix && !aix

package server

import (
	"net"
	"syscall"
)

// socketPeeker returns a function reporting whether bytes wait on c's
// socket that no read has taken yet — without taking them and without
// blocking: one recv(MSG_PEEK|MSG_DONTWAIT). It lets a stream run
// continue past the end of what bufio holds, so frames larger than the
// connection buffer still share a settle. It returns a function that
// always reports false for a connection that is not a socket.
func socketPeeker(c net.Conn) func() bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return func() bool { return false }
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return func() bool { return false }
	}
	var (
		buf   [1]byte
		ready bool
	)
	peek := func(fd uintptr) {
		n, _, err := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		ready = err == nil && n > 0
	}
	return func() bool {
		ready = false
		return rc.Control(peek) == nil && ready
	}
}
