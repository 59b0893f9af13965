//go:build unix && !aix

package gpuckpt

import (
	"net"
	"syscall"
)

// queuedBytes reports how many bytes, up to limit, wait on c's socket
// unread — one recv(MSG_PEEK|MSG_DONTWAIT) — or -1 if it cannot tell.
func queuedBytes(c net.Conn, limit int) int {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return -1
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return -1
	}
	buf, n := make([]byte, limit), -1
	if rc.Control(func(fd uintptr) {
		m, _, err := syscall.Recvfrom(int(fd), buf, syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		if n = 0; err == nil {
			n = m
		}
	}) != nil {
		return -1
	}
	return n
}
