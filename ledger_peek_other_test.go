//go:build !unix || aix

package gpuckpt

import "net"

// queuedBytes cannot tell on this platform.
func queuedBytes(net.Conn, int) int { return -1 }
