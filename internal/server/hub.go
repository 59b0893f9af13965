// The per-lineage subscription hub: fan-out of appended diffs to the
// live v5 tail streams of this server.
//
// Design constraints, in order:
//
//   - The publish path piggybacks on the push hot path (it runs with
//     the lineage lock held, which is what gives subscribers the
//     append order for free), so with zero subscribers it must cost
//     one mutex-protected map lookup and nothing else — no copies, no
//     allocation.
//   - A slow subscriber must never stall an append. Every subscriber
//     owns a bounded queue; a publish that would block sheds the
//     subscriber instead, and the resume cursor (wire.Cursor) makes
//     shedding safe — the follower reconnects and resumes exactly
//     where it stopped.
//   - An event is a reference, not a copy: the frame the intake staged
//     (frames.go), retained once for each queue it enters. Whoever
//     takes an event off a queue releases it — the subscription loop
//     once its write returns, or unregister, which drains the queue of
//     a subscriber that is gone — so a slow subscriber pins at most
//     its queue's worth of frames, and the last release recycles one.
//   - hub.mu is a strict leaf lock: while it is held, hub methods take
//     no other lock and call into no other subsystem, so the hub can
//     be invoked from under the lineage lock without adding lock-order
//     edges (the ckptlint lockorder analyzer checks this holds).
//     Taking a reference is an atomic add; every release, which may
//     take the free list's lock, runs after hub.mu is released.

package server

import (
	"sync"
	"sync/atomic"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// tailEvent is one appended diff on its way to a subscriber: the
// absolute checkpoint id and one reference to the shared frame holding
// its crc-prefixed encoded bytes (the TTail payload). Whoever takes the
// event off its queue releases the reference.
type tailEvent struct {
	ckpt  uint32
	frame *sharedFrame
}

// tailSub is one live subscriber of one lineage. The serving
// goroutine selects on ch (ordered events) and stop (shed barrier);
// after stop is closed the verdict fields say why and what span to
// report in the final TResync frame.
type tailSub struct {
	ch   chan tailEvent
	stop chan struct{}
	once sync.Once

	// Verdict, stored before stop closes (the channel close is the
	// happens-before edge that publishes them to the serving
	// goroutine).
	reason  atomic.Uint32 //ckptlint:atomic
	newBase atomic.Uint32 //ckptlint:atomic
	newLen  atomic.Uint32 //ckptlint:atomic
}

// shed records the barrier verdict and releases the serving
// goroutine. Idempotent: the first reason wins.
func (t *tailSub) shed(reason uint8, base, n uint32) {
	t.once.Do(func() {
		t.reason.Store(uint32(reason))
		t.newBase.Store(base)
		t.newLen.Store(n)
		close(t.stop)
	})
}

// verdict reads the barrier outcome after stop closed.
func (t *tailSub) verdict() (reason uint8, base, n uint32) {
	return uint8(t.reason.Load()), t.newBase.Load(), t.newLen.Load()
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

// register adds a subscriber with a queue of the given capacity.
// Called with the lineage lock held, so the registration point is a
// consistent cut: every diff appended after it is published to ch,
// every earlier one is readable from the store.
func (h *hub) register(ln *lineage, queue int) *tailSub {
	sub := &tailSub{
		ch:   make(chan tailEvent, queue),
		stop: make(chan struct{}),
	}
	h.mu.Lock()
	h.subs[ln] = append(h.subs[ln], sub)
	h.mu.Unlock()
	return sub
}

// unregister removes a subscriber if it is still registered (a shed
// already removed it), then releases every event left in its queue —
// once it is out of the map, nothing enqueues to it again. Called once
// per register, when the subscription is over; a second call finds
// nothing to do.
func (h *hub) unregister(ln *lineage, sub *tailSub) {
	h.mu.Lock()
	h.removeLocked(ln, sub)
	h.mu.Unlock()
	for {
		select {
		case ev := <-sub.ch:
			ev.frame.release()
		default:
			return
		}
	}
}

//ckptlint:locked mu
func (h *hub) removeLocked(ln *lineage, sub *tailSub) {
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

// count reports the number of live subscribers of ln — the publish
// path's zero-cost guard before it stages anything.
func (h *hub) count(ln *lineage) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs[ln])
}

// publish fans one appended diff, held in f, out to every subscriber
// of ln. Each queue gets a reference of its own, taken before the send
// — its subscriber may release it at once — and given back when the
// send would block; the caller keeps its reference throughout. A
// subscriber whose queue is full is shed with a lag barrier carrying
// the current [base, n) span; it returns how many were shed. Called
// with the lineage lock held — that lock, not the hub's, is what
// orders events.
func (h *hub) publish(ln *lineage, ckpt uint32, f *sharedFrame, base, n uint32) int {
	h.mu.Lock()
	var shed []*tailSub
	for _, sub := range h.subs[ln] {
		f.retain()
		select {
		case sub.ch <- tailEvent{ckpt: ckpt, frame: f}:
		default:
			shed = append(shed, sub)
		}
	}
	for _, sub := range shed {
		h.removeLocked(ln, sub)
	}
	h.mu.Unlock()
	for _, sub := range shed {
		f.release() // the reference its full queue did not take
		sub.shed(wire.ResyncLag, base, n)
	}
	return len(shed)
}

// fold sheds every subscriber of ln with a fold barrier: the baseline
// moved, so their resume cursors are stale and they must re-pull
// [base, n) before re-subscribing. Returns how many were shed.
func (h *hub) fold(ln *lineage, base, n uint32) int {
	h.mu.Lock()
	shed := append([]*tailSub(nil), h.subs[ln]...)
	delete(h.subs, ln)
	h.mu.Unlock()
	for _, sub := range shed {
		sub.shed(wire.ResyncFold, base, n)
	}
	return len(shed)
}
