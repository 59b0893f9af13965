//go:build !unix || aix

package server

import "net"

// socketPeeker returns a function reporting whether bytes wait on c's
// socket; on this platform it cannot tell and always reports false, so
// a stream run continues only while bufio holds its next frame.
func socketPeeker(net.Conn) func() bool { return func() bool { return false } }
