// The server's frame memory: one free list of byte buffers, owned by
// the Server, that connections read pushed frames into and span streams
// and subscriptions read diffs back into. A buffer has one user at a
// time and goes back when that user is done with it — a connection's
// read buffer when the connection outgrows it or closes, a staged
// frame's once its run has settled, a span stream's or a subscription's
// once a diff outgrows it, and after the stream ends or each wake — so
// a warm server ingests, replicates and serves frames without
// allocating for them, and unlike a sync.Pool the list is not emptied
// by a GC.
//
// What the list retains is capped server-wide by frameMemCap; a buffer
// that would take it past the cap is left to the GC. The cap bounds
// idle buffers only. Buffers in use are bounded by their users: a
// staged run by streamBatchBytes per connection, a span stream or a
// subscription by the one frame it is writing. The cap is not per
// connection: MaxConns connections each pinning a full staged run would
// be 64 × 16 MiB.

package server

import (
	"math"
	"math/bits"
	"sync"
)

// frameMemCap bounds the bytes of free buffers the server retains: four
// staged runs at their byte cap.
const frameMemCap = 4 * streamBatchBytes

// frameMemMin is the smallest buffer the list keeps: every connection
// reads its first header into a few bytes of its own and hands them
// back when it closes.
const frameMemMin = 4 << 10

// frameMem is the free list. Buffers are kept by capacity class — class
// k holds capacities of bit length k, [2^(k-1), 2^k) — so a get looks at
// the top of at most one class that may not fit before it finds one
// that must.
type frameMem struct {
	mu sync.Mutex
	//ckptlint:guardedby mu
	free [bits.UintSize + 1][][]byte
	//ckptlint:guardedby mu
	held int // bytes of capacity on the list
}

// get returns a free buffer, emptied, for the next read of a
// connection that has just staged an n-byte frame: the smallest that
// holds n, else the largest, or nil if the list is empty. It never
// allocates: a read that outgrows what it returns grows its own
// (wire.ReadFrameSpare).
func (m *frameMem) get(n int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := bits.Len(uint(n)); k < len(m.free); k++ {
		if top := len(m.free[k]) - 1; top >= 0 && cap(m.free[k][top]) >= n {
			return m.takeLocked(k)
		}
	}
	for k := len(m.free) - 1; k > 0; k-- {
		if len(m.free[k]) > 0 {
			return m.takeLocked(k)
		}
	}
	return nil
}

// largest returns the largest free buffer, emptied, or nil if there is
// none. A span stream or a subscription takes it: neither can know its
// largest frame before it has read it.
func (m *frameMem) largest() []byte { return m.get(math.MaxInt) }

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
