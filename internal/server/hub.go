// The per-lineage subscription hub: who to wake when a lineage changes.
//
// The hub holds no frames. A subscription reads what it sends from the
// store (pull.go); the hub only tells it when to look again. What
// it finds is either more diffs of its generation, which it sends, or
// a lineage a fold or span install rewrote, which ends it.
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

import "sync"

// hub tracks the subscribers of every lineage. A subscriber is its
// wake channel: capacity one, so a wake is a token that is either
// waiting for it or not.
type hub struct {
	mu sync.Mutex
	//ckptlint:guardedby mu
	subs map[*lineage][]chan struct{}
}

func newHub() *hub {
	return &hub{subs: make(map[*lineage][]chan struct{})}
}

// register adds a subscriber. Called with the lineage lock held, so the
// registration point is a consistent cut: every change to the lineage
// after it is followed by a wake, every earlier one is in the store
// already.
func (h *hub) register(ln *lineage) chan struct{} {
	sub := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ln] = append(h.subs[ln], sub)
	h.mu.Unlock()
	return sub
}

// unregister removes a subscriber. Called once per register, when the
// subscription is over.
func (h *hub) unregister(ln *lineage, sub chan struct{}) {
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

// wake tells every subscriber of ln that the lineage changed. A
// subscriber that has not taken its last token yet keeps that one: it
// reads the store to its end, so one token covers any number of
// changes.
func (h *hub) wake(ln *lineage) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, sub := range h.subs[ln] {
		select {
		case sub <- struct{}{}:
		default:
		}
	}
}
