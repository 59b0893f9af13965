// The server's frame memory: one free list of byte buffers, owned by
// the Server, that the stream intake stages pushed frames in and span
// streams reassemble diffs in. A buffer goes back when its users are
// done with it — a span stream once it has ended; a staged frame once
// its run has settled and every subscriber queue it was published to
// has let go of it — so a warm server ingests, replicates and serves
// frames without allocating for them, and unlike a sync.Pool the list
// is not emptied by a GC.
//
// A staged frame is shared, not copied: the intake and each hub queue
// hold one reference to its sharedFrame, and the last release puts the
// buffer back. What the list retains is capped server-wide by
// frameMemCap; a buffer that would take it past the cap is left to the
// GC. The cap bounds idle buffers only. Buffers in use are bounded by
// their users: a staged run by streamBatchBytes per connection, a
// subscriber by SubscriberQueue frames plus the one it is writing. The
// cap is not per connection: MaxConns connections each pinning a full
// staged run would be 64 × 16 MiB.

package server

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// frameMemCap bounds the bytes of free buffers the server retains: four
// staged runs at their byte cap.
const frameMemCap = 4 * streamBatchBytes

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

	// shared counts the references held to shared frames, all frames
	// together: zero once every run has settled and every subscriber
	// has let go.
	shared atomic.Int64 //ckptlint:atomic
}

// sharedFrame is a free-list buffer that more than one user reads: a
// staged stream frame, held by its run and by each hub queue it was
// published to. Whoever holds a reference may read buf; none may write
// it. The last release hands buf back to the list.
type sharedFrame struct {
	mem  *frameMem
	buf  []byte
	refs atomic.Int32 //ckptlint:atomic
}

// share copies src into a buffer from the list and returns it as a
// shared frame holding one reference, the caller's.
func (m *frameMem) share(src []byte) *sharedFrame {
	f := &sharedFrame{mem: m, buf: m.get(len(src))}
	copy(f.buf, src)
	f.retain()
	return f
}

// retain takes one more reference to f; its holder must release it.
func (f *sharedFrame) retain() {
	f.refs.Add(1)
	f.mem.shared.Add(1)
}

// release gives one reference back; the last one puts the buffer back
// on the list, after which no holder may touch buf. Releasing more
// references than were taken would hand one buffer to two users, so it
// panics instead.
func (f *sharedFrame) release() {
	f.mem.shared.Add(-1)
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.mem.put(f.buf)
	case n < 0:
		panic("server: shared frame released more often than retained")
	}
}

// get returns a buffer of length n: a free one from the smallest class
// holding one that fits, or else a new one.
func (m *frameMem) get(n int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := bits.Len(uint(n)); k < len(m.free); k++ {
		if top := len(m.free[k]) - 1; top >= 0 && cap(m.free[k][top]) >= n {
			return m.takeLocked(k)[:n]
		}
	}
	return make([]byte, n)
}

// largest returns the largest free buffer, emptied, or nil if there is
// none. A span stream takes it: it cannot know its largest frame before
// it has read it.
func (m *frameMem) largest() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := len(m.free) - 1; k > 0; k-- {
		if len(m.free[k]) > 0 {
			return m.takeLocked(k)[:0]
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
	return b
}

// put hands b back to the list. Its user must hold no slice of it any
// longer.
func (m *frameMem) put(b []byte) {
	if cap(b) == 0 {
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
