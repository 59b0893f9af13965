// The server's frame memory: one free list of byte buffers, owned by
// the Server, that span streams and subscriptions read diffs back
// into. The push intake does not draw on it: a pushed diff goes from
// the connection's read buffer to the block store, and its run keeps
// only its records (push.go). A buffer has one user at a time and goes
// back when that user is done with it — a span stream's or a
// subscription's once a diff outgrows it, and after the stream ends or
// each wake — so a warm server replicates and serves frames without
// allocating for them, and unlike a sync.Pool the list is not emptied
// by a GC.
//
// What the list retains is capped server-wide by frameMemCap; a buffer
// that would take it past the cap is left to the GC. The cap bounds
// idle buffers only. Buffers in use are bounded by their users: a span
// stream or a subscription by the one frame it is writing.

package server

import (
	"math/bits"
	"sync"
)

// frameMemCap bounds the bytes of free buffers the server retains.
const frameMemCap = 64 << 20

// frameMemMin is the smallest buffer the list keeps.
const frameMemMin = 4 << 10

// frameMem is the free list. Buffers are kept by capacity class — class
// k holds capacities of bit length k, [2^(k-1), 2^k) — so largest finds
// a buffer of the top class at once.
type frameMem struct {
	mu sync.Mutex
	//ckptlint:guardedby mu
	free [bits.UintSize + 1][][]byte
	//ckptlint:guardedby mu
	held int // bytes of capacity on the list
}

// largest returns the largest free buffer, emptied, or nil if there is
// none. A span stream or a subscription takes it: neither can know its
// largest frame before it has read it. It never allocates: a read that
// outgrows what it returns grows its own.
func (m *frameMem) largest() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := len(m.free) - 1; k > 0; k-- {
		if len(m.free[k]) > 0 {
			return m.takeLocked(k)
		}
	}
	return nil
}

// takeLocked pops the top buffer of class k.
//
//ckptlint:locked mu
func (m *frameMem) takeLocked(k int) []byte {
	top := len(m.free[k]) - 1
	b := m.free[k][top]
	m.free[k][top] = nil
	m.free[k] = m.free[k][:top]
	m.held -= cap(b)
	return b[:0]
}

// put hands b back to the list. Its user must hold no slice of it any
// longer.
func (m *frameMem) put(b []byte) {
	if cap(b) < frameMemMin {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held+cap(b) > frameMemCap {
		return
	}
	k := bits.Len(uint(cap(b)))
	m.free[k] = append(m.free[k], b)
	m.held += cap(b)
}
