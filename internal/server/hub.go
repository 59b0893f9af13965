// The per-lineage subscription hub: who to wake when a lineage grows,
// and who to stop when a fold moves its baseline.
//
// The hub holds no frames. A subscription reads what it sends from the
// store (subscribe.go); the hub only tells it when to look again.
//
// Design constraints, in order:
//
//   - commit wakes a lineage's subscribers after every append, so with
//     zero subscribers a wake must cost one mutex-protected map lookup
//     and nothing else — no allocation.
//   - A slow subscriber never stalls an append: a wake is one token in
//     a channel of capacity one, sent without blocking. A subscriber
//     that is behind finds the token already there; the appends it
//     stands for are in the store, and its next look serves them all.
//   - hub.mu is a strict leaf lock: while it is held, hub methods take
//     no other lock and call into no other subsystem, so the hub can
//     be invoked from under the lineage lock without adding lock-order
//     edges (the ckptlint lockorder analyzer checks this holds).

package server

import (
	"sync"
	"sync/atomic"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// tailSub is one live subscriber of one lineage. The serving goroutine
// selects on wake (the lineage grew) and stop (fold barrier); after stop
// is closed the verdict fields say what span to report in the final
// TResync frame.
type tailSub struct {
	wake chan struct{}
	stop chan struct{}
	once sync.Once

	// Verdict, stored before stop closes (the channel close is the
	// happens-before edge that publishes them to the serving
	// goroutine).
	newBase atomic.Uint32 //ckptlint:atomic
	newLen  atomic.Uint32 //ckptlint:atomic
}

// fold records the fold verdict and releases the serving goroutine.
// Idempotent: the first verdict wins.
func (t *tailSub) fold(base, n uint32) {
	t.once.Do(func() {
		t.newBase.Store(base)
		t.newLen.Store(n)
		close(t.stop)
	})
}

// verdict reads the fold barrier after stop closed.
func (t *tailSub) verdict() wire.Resync {
	return wire.Resync{Reason: wire.ResyncFold, Base: t.newBase.Load(), Len: t.newLen.Load()}
}

// hub tracks the subscribers of every lineage.
type hub struct {
	mu sync.Mutex
	//ckptlint:guardedby mu
	subs map[*lineage][]*tailSub
}

func newHub() *hub {
	return &hub{subs: make(map[*lineage][]*tailSub)}
}

// register adds a subscriber. Called with the lineage lock held, so the
// registration point is a consistent cut: every diff appended after it
// is followed by a wake, every earlier one is in the store already.
func (h *hub) register(ln *lineage) *tailSub {
	sub := &tailSub{
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	h.mu.Lock()
	h.subs[ln] = append(h.subs[ln], sub)
	h.mu.Unlock()
	return sub
}

// unregister removes a subscriber if it is still registered (a fold
// already removed it). Called once per register, when the subscription
// is over; a second call finds nothing to do.
func (h *hub) unregister(ln *lineage, sub *tailSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := h.subs[ln]
	for i, s := range subs {
		if s == sub {
			subs[i] = subs[len(subs)-1]
			subs[len(subs)-1] = nil
			h.subs[ln] = subs[:len(subs)-1]
			break
		}
	}
	if len(h.subs[ln]) == 0 {
		delete(h.subs, ln)
	}
}

// wake tells every subscriber of ln that the lineage grew. A subscriber
// that has not taken its last token yet keeps that one: it reads the
// store to its end, so one token covers any number of appends.
func (h *hub) wake(ln *lineage) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, sub := range h.subs[ln] {
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
}

// fold stops every subscriber of ln with a fold barrier: the baseline
// moved, so their resume cursors are stale and they must re-pull
// [base, n) before re-subscribing. Returns how many were stopped.
func (h *hub) fold(ln *lineage, base, n uint32) int {
	h.mu.Lock()
	stopped := h.subs[ln]
	delete(h.subs, ln)
	h.mu.Unlock()
	for _, sub := range stopped {
		sub.fold(base, n)
	}
	return len(stopped)
}
